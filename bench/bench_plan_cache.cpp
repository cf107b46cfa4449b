// Cross-query plan-cache throughput: a seeded 1000-query stream whose
// shapes repeat with Zipf frequencies (rank-r shape appears with
// probability ∝ 1/r), planned through OptimizeBatch at 1/4/8 threads with
// the cache off, cold (first pass populates) and warm (steady state).
//
// This is the serving scenario the cache exists for: production traffic
// re-sends the same query shapes with Zipf-like skew, so after warm-up
// almost every arrival is a fingerprint probe instead of a DP/GOO/IDP
// run. Reported per thread count: median batch wall clock, qps, p50
// per-query latency and hit rate for each cache mode, plus the
// steady-state median-latency improvement (cache-off p50 / warm p50) —
// the headline number, expected well above 5x (a probe is microseconds;
// planning the pool's shapes is tens of microseconds to milliseconds).
//
// Determinism guard on the side (like bench_parallel): per-query plan
// costs with the cache on — cold and warm — must be bit-identical to the
// cache-off run; the bench hard-fails on divergence.
//
// Machine-readable records (EADP_BENCH_JSON, see bench_util.h): per
// thread count and cache mode, wall median_ms + qps/p50/hit-rate values,
// plus the steady-state speedup, folded into BENCH_results.json by
// scripts/bench.sh.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "plangen/plan_cache.h"
#include "plangen/session.h"

using namespace eadp;

namespace {

constexpr int kStreamLength = 1000;
constexpr int kDistinctShapes = 64;

/// Shape rank -> generator config. Shapes span both facade paths: mostly
/// exact-DP random trees (n = 5..10), with every 8th shape a large
/// structured query (chain/star alternating, n = 16/24).
Query ShapeQuery(int shape) {
  GeneratorOptions gen;
  if (shape % 8 == 7) {
    gen.topology = (shape % 16 == 15) ? QueryTopology::kStar
                                      : QueryTopology::kChain;
    gen.num_relations = 16 + 8 * ((shape / 16) % 2);
  } else {
    gen.num_relations = 5 + shape % 6;
  }
  return GenerateRandomQuery(gen, 5000 + static_cast<uint64_t>(shape));
}

/// The seeded Zipf(1.0) stream over shape ranks: rank r (1-based) drawn
/// with probability (1/r) / H_k. Inverse-CDF sampling off one Rng keeps
/// the stream identical across runs, thread counts and cache modes.
std::vector<int> ZipfStream() {
  std::vector<double> cdf(kDistinctShapes);
  double h = 0;
  for (int r = 0; r < kDistinctShapes; ++r) {
    h += 1.0 / (r + 1);
    cdf[r] = h;
  }
  Rng rng(42);
  std::vector<int> stream(kStreamLength);
  for (int i = 0; i < kStreamLength; ++i) {
    double u = rng.UniformDouble() * h;
    int lo = 0, hi = kDistinctShapes - 1;
    while (lo < hi) {
      int mid = (lo + hi) / 2;
      if (cdf[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    stream[i] = lo;
  }
  return stream;
}

std::vector<Query> StreamQueries(const std::vector<int>& stream) {
  std::vector<Query> queries;
  queries.reserve(stream.size());
  for (int shape : stream) queries.push_back(ShapeQuery(shape));
  return queries;
}

struct ModeResult {
  double wall_ms = 0;
  double qps = 0;
  double p50_ms = 0;
  double hit_rate = 0;
};

}  // namespace

int main(int argc, char** argv) {
  int reps = BenchQueries(argc, argv, 3);
  BenchJsonWriter json("plan_cache");

  std::vector<int> stream = ZipfStream();
  std::vector<Query> queries = StreamQueries(stream);
  int distinct_in_stream = 0;
  {
    std::vector<bool> seen(kDistinctShapes, false);
    for (int s : stream) {
      if (!seen[s]) {
        seen[s] = true;
        ++distinct_in_stream;
      }
    }
  }

  OptimizerOptions options;

  // Reference pass: sequential, cache off. Also the per-query cost oracle
  // for the determinism guard.
  BatchResult reference =
      PlannerSession(options).OptimizeBatch(queries, nullptr);
  auto guard = [&reference, &queries](const BatchResult& r, const char* what) {
    for (size_t i = 0; i < queries.size(); ++i) {
      double want =
          reference.results[i].plan ? reference.results[i].plan->cost : -1;
      double got = r.results[i].plan ? r.results[i].plan->cost : -1;
      if (got != want) {
        std::fprintf(stderr, "FATAL: query %zu cost %g != reference %g (%s)\n",
                     i, got, want, what);
        std::exit(1);
      }
    }
  };

  std::printf("plan-cache throughput: %d-query Zipf stream over %d shapes "
              "(%d reach the stream), median over %d runs\n",
              kStreamLength, kDistinctShapes, distinct_in_stream, reps);
  std::printf("%8s %6s  %10s %10s %10s %9s\n", "threads", "cache", "wall ms",
              "qps", "p50 ms", "hit rate");

  double off_p50_1thread = 0;
  double warm_p50_1thread = 0;
  for (int threads : {1, 4, 8}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    ModeResult modes[3];  // off, cold, warm
    const char* names[3] = {"off", "cold", "warm"};
    std::vector<double> wall[3], qps[3], p50[3], hit[3];
    for (int rep = 0; rep < reps; ++rep) {
      // Fresh cache per rep: "cold" measures the populate pass, "warm"
      // the steady state the serving tier lives in.
      PlanCache cache;
      OptimizerOptions cached = options;
      cached.plan_cache = &cache;

      PlannerSession uncached_session(options);
      PlannerSession cached_session(cached);
      BatchResult off = uncached_session.OptimizeBatch(queries, pool.get());
      PlanCacheStats before = cache.Snapshot();
      BatchResult cold = cached_session.OptimizeBatch(queries, pool.get());
      PlanCacheStats mid = cache.Snapshot();
      BatchResult warm = cached_session.OptimizeBatch(queries, pool.get());
      PlanCacheStats after = cache.Snapshot();
      guard(off, "cache off");
      guard(cold, "cache cold");
      guard(warm, "cache warm");

      const BatchResult* rs[3] = {&off, &cold, &warm};
      double hit_rates[3] = {
          0,
          static_cast<double>(mid.hits - before.hits) / kStreamLength,
          static_cast<double>(after.hits - mid.hits) / kStreamLength};
      for (int m = 0; m < 3; ++m) {
        wall[m].push_back(rs[m]->stats.wall_ms);
        qps[m].push_back(rs[m]->stats.queries_per_second);
        p50[m].push_back(rs[m]->stats.p50_ms);
        hit[m].push_back(hit_rates[m]);
      }
    }
    for (int m = 0; m < 3; ++m) {
      modes[m] = {Median(wall[m]), Median(qps[m]), Median(p50[m]),
                  Median(hit[m])};
      std::printf("%8d %6s  %10.1f %10.1f %10.4f %8.1f%%\n", threads,
                  names[m], modes[m].wall_ms, modes[m].qps, modes[m].p50_ms,
                  100 * modes[m].hit_rate);
      std::string prefix = "zipf1000/threads=" + std::to_string(threads) +
                           "/cache=" + names[m];
      json.RecordMs(prefix + "/wall", modes[m].wall_ms);
      json.RecordValue(prefix + "/qps", modes[m].qps);
      json.RecordValue(prefix + "/p50_ms", modes[m].p50_ms);
      if (m > 0) json.RecordValue(prefix + "/hit_rate", modes[m].hit_rate);
    }
    if (threads == 1) {
      off_p50_1thread = modes[0].p50_ms;
      warm_p50_1thread = modes[2].p50_ms;
    }
  }

  double speedup = warm_p50_1thread > 0 ? off_p50_1thread / warm_p50_1thread
                                        : 0;
  std::printf("\nsteady-state median-latency improvement (1 thread, "
              "off p50 / warm p50): %.1fx\n", speedup);
  json.RecordValue("zipf1000/steady_state_p50_speedup", speedup);
  if (speedup < 5.0) {
    std::fprintf(stderr, "FATAL: steady-state p50 improvement %.2fx < 5x\n",
                 speedup);
    return 1;
  }
  return 0;
}
