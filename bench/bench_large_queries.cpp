// Large-query benchmark: optimization runtime and plan cost of the
// large-query strategies (GOO, IDP, the adaptive facade) and the
// unoptimized original tree over seeded chain/star/cycle/clique topologies
// at n in {20, 30, 50, 100}.
//
// Expected shape: both strategies stay in the low milliseconds across the
// whole range (the exhaustive generators are infeasible everywhere here),
// IDP wins on chains/stars where bounded exact subproblems capture most of
// the join order, GOO wins on cycles and is the only planner for cliques
// (whose prefix-shaped SES sets defeat IDP's group selection), and both
// beat the original tree's cost by orders of magnitude. The adaptive
// facade runs GOO first and bounds IDP by GOO's cost (DESIGN.md §14,
// "seeded bound"), so where GOO wins, IDP gives up early and "adapt ms"
// falls well below "GOO ms" + "IDP ms".
//
// Machine-readable records (EADP_BENCH_JSON, see bench_util.h): per-case
// median runtime (median_ms) and median plan cost (value), folded into
// BENCH_results.json by scripts/bench.sh.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "plangen/large_query.h"
#include "plangen/session.h"

using namespace eadp;

int main(int argc, char** argv) {
  int queries = BenchQueries(argc, argv, 5);
  BenchJsonWriter json("large_queries");

  std::printf("Large queries: median optimization runtime [ms] and median "
              "plan cost (%d queries/case)\n", queries);
  std::printf("%-8s %4s  %10s %10s %10s | %12s %12s %12s %12s\n", "topology",
              "n", "GOO ms", "IDP ms", "adapt ms", "GOO cost", "IDP cost",
              "adapt cost", "orig cost");

  for (QueryTopology t : {QueryTopology::kChain, QueryTopology::kStar,
                          QueryTopology::kCycle, QueryTopology::kClique}) {
    for (int n : {20, 30, 50, 100}) {
      std::vector<double> goo_ms, idp_ms, adapt_ms;
      std::vector<double> goo_cost, idp_cost, adapt_cost, orig_cost;
      for (int i = 0; i < queries; ++i) {
        GeneratorOptions gen;
        gen.topology = t;
        gen.num_relations = n;
        Query q = GenerateRandomQuery(
            gen, static_cast<uint64_t>(n) * 1000 + static_cast<uint64_t>(i));

        OptimizerOptions options;
        options.algorithm = Algorithm::kGoo;
        OptimizeResult goo = Optimize(q, options);
        goo_ms.push_back(goo.stats.optimize_ms);
        if (goo.plan) goo_cost.push_back(goo.plan->cost);

        options.algorithm = Algorithm::kIdp;
        OptimizeResult idp = Optimize(q, options);
        if (idp.plan) {
          idp_ms.push_back(idp.stats.optimize_ms);
          idp_cost.push_back(idp.plan->cost);
        }

        auto start = std::chrono::steady_clock::now();
        OptimizeResult adaptive = PlannerSession().Optimize(q);
        adapt_ms.push_back(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count());
        if (adaptive.plan) adapt_cost.push_back(adaptive.plan->cost);

        OptimizeResult original = OptimizeOriginal(q, OptimizerOptions{});
        if (original.plan) orig_cost.push_back(original.plan->cost);
      }

      std::string prefix =
          std::string(TopologyName(t)) + "/n=" + std::to_string(n);
      json.RecordMs("GOO/" + prefix, Median(goo_ms));
      if (!idp_ms.empty()) json.RecordMs("IDP/" + prefix, Median(idp_ms));
      json.RecordMs("adaptive/" + prefix, Median(adapt_ms));
      json.RecordValue("GOO-cost/" + prefix, Median(goo_cost));
      if (!idp_cost.empty()) {
        json.RecordValue("IDP-cost/" + prefix, Median(idp_cost));
      }
      json.RecordValue("adaptive-cost/" + prefix, Median(adapt_cost));
      json.RecordValue("original-cost/" + prefix, Median(orig_cost));

      auto cell = [](const std::vector<double>& v) {
        return v.empty() ? -1.0 : Median(v);
      };
      std::printf("%-8s %4d  %10.3f %10.3f %10.3f | %12.5g %12.5g %12.5g "
                  "%12.5g\n",
                  TopologyName(t), n, cell(goo_ms), cell(idp_ms),
                  cell(adapt_ms), cell(goo_cost), cell(idp_cost),
                  cell(adapt_cost), cell(orig_cost));
    }
  }
  std::printf("\n(IDP '-1' cells: no plan — conflict-blocked groups, the "
              "adaptive facade falls back to GOO)\n");
  return 0;
}
