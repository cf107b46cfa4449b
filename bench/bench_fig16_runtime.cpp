// Figure 16: optimization runtime of DPhyp, EA-Prune, EA-All and H1 per
// relation count (log-scale in the paper).
//
// Expected shape: EA-All explodes first (paper: >1 s at 7-8 relations),
// EA-Prune extends the feasible range by ~3 relations, H1 tracks DPhyp
// within a small constant factor (paper: ~2.6x), DPhyp stays fastest.
//
// Extension beyond the paper: a DPhyp workers=4 column (intra-query
// parallel DP, src/plangen/parallel_dp.h) for the sizes with enough
// csg-cmp-pairs to shard (n >= 10). Its wall medians are recorded as
// ".../workers=4" rows, which bench_gate.py treats as core-count-
// sensitive (reported, never gated).
//
// Second extension: the adaptive facade's seeded EA-Prune (GOO's cost as
// the DP's cost bound, DESIGN.md §14 "seeded bound"; GOO's time included)
// beside the unbounded EA-Prune rows, which stay the paper's measurement:
// "EA-Prune/seeded/n=N" on the same random trees, and unbounded plus
// seeded rows for stars and chains ("EA-Prune/<topology>[/seeded]/n=N"),
// where the bound prunes most.
//
// The printed table reports averages (comparable with the paper's plots);
// the machine-readable records (EADP_BENCH_JSON, see bench_util.h) report
// per-size *medians*, which are robust against scheduler noise.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"

using namespace eadp;

int main(int argc, char** argv) {
  int queries = BenchQueries(argc, argv, 20);
  const int max_rels = 15;
  const int max_rels_prune = 11;
  const int max_rels_all = 8;
  const int min_rels_workers = 10;
  const int max_rels_seeded = 12;     // the facade's exact threshold
  const int max_rels_structured = 10;  // unbounded stars: ~0.3 s at 10
  BenchJsonWriter json("fig16_runtime");
  ThreadPool pool(3);

  std::printf("Figure 16: average optimization runtime [ms] "
              "(%d queries/size)\n", queries);
  std::printf("%4s %12s %12s %12s %12s %12s %10s\n", "rels", "DPhyp", "H1",
              "EA-Prune", "EA-All", "DPhyp(w=4)", "H1/DPhyp");

  for (int n = 3; n <= max_rels; ++n) {
    std::vector<double> dphyp_ms;
    std::vector<double> h1_ms;
    std::vector<double> prune_ms;
    std::vector<double> all_ms;
    std::vector<double> dphyp_w4_ms;
    for (int i = 0; i < queries; ++i) {
      Query q = BenchQuery(n, static_cast<uint64_t>(n) * 200000 + i);
      dphyp_ms.push_back(RunAlgorithm(q, Algorithm::kDphyp).ms);
      h1_ms.push_back(RunAlgorithm(q, Algorithm::kH1).ms);
      if (n <= max_rels_prune) {
        prune_ms.push_back(RunAlgorithm(q, Algorithm::kEaPrune).ms);
      }
      if (n <= max_rels_all) {
        all_ms.push_back(RunAlgorithm(q, Algorithm::kEaAll).ms);
      }
      if (n >= min_rels_workers) {
        OptimizerOptions options;
        options.algorithm = Algorithm::kDphyp;
        options.dp_threads = 4;
        options.dp_pool = &pool;
        dphyp_w4_ms.push_back(Optimize(q, options).stats.optimize_ms);
      }
    }
    auto avg = [](const std::vector<double>& v) {
      if (v.empty()) return -1.0;
      double total = 0;
      for (double x : v) total += x;
      return total / static_cast<double>(v.size());
    };
    auto record = [&](const char* alg, const std::vector<double>& v) {
      if (!v.empty()) {
        json.RecordMs(std::string(alg) + "/n=" + std::to_string(n),
                      Median(v));
      }
    };
    record("DPhyp", dphyp_ms);
    record("H1", h1_ms);
    record("EA-Prune", prune_ms);
    record("EA-All", all_ms);
    if (!dphyp_w4_ms.empty()) {
      json.RecordMs("DPhyp/n=" + std::to_string(n) + "/workers=4",
                    Median(dphyp_w4_ms));
    }
    double d = avg(dphyp_ms);
    double h = avg(h1_ms);
    double p = avg(prune_ms);
    double a = avg(all_ms);
    double w4 = avg(dphyp_w4_ms);
    std::printf("%4d %12.4f %12.4f ", n, d, h);
    if (p >= 0) {
      std::printf("%12.4f ", p);
    } else {
      std::printf("%12s ", "-");
    }
    if (a >= 0) {
      std::printf("%12.4f ", a);
    } else {
      std::printf("%12s ", "-");
    }
    if (w4 >= 0) {
      std::printf("%12.4f ", w4);
    } else {
      std::printf("%12s ", "-");
    }
    std::printf("%10.2f\n", h / d);
  }
  std::printf("\n(paper: EA-All feasible to ~7, EA-Prune to ~10-11, H1 a "
              "constant ~2.6x over DPhyp)\n");

  // Seeded facade rows: the same EA-Prune plans, found under GOO's bound.
  auto seeded_ms = [](const Query& q) {
    return OptimizeAdaptiveUncached(q, OptimizerOptions{}).stats.optimize_ms;
  };
  std::printf("\nSeeded EA-Prune (GOO's cost bounds the DP): median "
              "runtime [ms]\n");
  std::printf("%4s %12s %12s %12s %12s %12s\n", "rels", "random+seed",
              "star", "star+seed", "chain", "chain+seed");
  for (int n = 3; n <= max_rels_seeded; ++n) {
    std::vector<double> random_seeded;
    std::vector<double> star, star_seeded, chain, chain_seeded;
    for (int i = 0; i < queries; ++i) {
      Query q = BenchQuery(n, static_cast<uint64_t>(n) * 200000 + i);
      random_seeded.push_back(seeded_ms(q));
      if (n > max_rels_structured) continue;
      for (QueryTopology t : {QueryTopology::kStar, QueryTopology::kChain}) {
        GeneratorOptions gen;
        gen.topology = t;
        gen.num_relations = n;
        Query s = GenerateRandomQuery(
            gen, static_cast<uint64_t>(n) * 300000 + static_cast<uint64_t>(i));
        bool is_star = t == QueryTopology::kStar;
        (is_star ? star : chain)
            .push_back(RunAlgorithm(s, Algorithm::kEaPrune).ms);
        (is_star ? star_seeded : chain_seeded).push_back(seeded_ms(s));
      }
    }
    std::string suffix = "/n=" + std::to_string(n);
    json.RecordMs("EA-Prune/seeded" + suffix, Median(random_seeded));
    if (!star.empty()) {
      json.RecordMs("EA-Prune/star" + suffix, Median(star));
      json.RecordMs("EA-Prune/star/seeded" + suffix, Median(star_seeded));
      json.RecordMs("EA-Prune/chain" + suffix, Median(chain));
      json.RecordMs("EA-Prune/chain/seeded" + suffix, Median(chain_seeded));
    }
    auto cell = [](const std::vector<double>& v) {
      return v.empty() ? -1.0 : Median(v);
    };
    std::printf("%4d %12.4f %12.4f %12.4f %12.4f %12.4f\n", n,
                Median(random_seeded), cell(star), cell(star_seeded),
                cell(chain), cell(chain_seeded));
  }
  std::printf("\n(random+seed pairs with the EA-Prune column above; the "
              "facade seeds from 5 relations on, and stars and chains "
              "should gain 10x+ from ~9)\n");
  return 0;
}
