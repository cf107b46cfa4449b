// Parallel-optimizer throughput: OptimizeBatch over a seeded 100-query
// mixed-topology batch (random operator trees below the exact-DP
// threshold, chain/star/cycle/clique above it) at 1/2/4/8 threads.
//
// Reported per thread count: median batch wall clock, queries/sec, p50/p95
// per-query latency, and the throughput speedup over the single-thread
// run. The single-thread run is the sequential reference loop, so the
// bench double-checks the determinism contract on the side: per-query
// plan costs must be bit-identical across all thread counts (the bench
// aborts loudly if not — a wrong answer delivered quickly is not a
// result). Expected shape: near-linear scaling while threads <= physical
// cores (each task is an independent single-threaded optimization with
// arena-private memory), flat beyond; on a single-core host every thread
// count necessarily lands near 1.0x.
//
// Machine-readable records (EADP_BENCH_JSON, see bench_util.h): per thread
// count, wall median_ms plus qps / p50 / p95 / speedup values, folded into
// BENCH_results.json by scripts/bench.sh.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "plangen/session.h"

using namespace eadp;

namespace {

/// The seeded batch: 20 random operator trees (n = 6..10, exact DP) and 80
/// structured large queries (4 topologies x n in {16, 24, 40, 64} x 5
/// seeds) — 100 queries mixing both facade paths.
std::vector<Query> SeededBatch() {
  std::vector<Query> batch;
  for (int i = 0; i < 20; ++i) {
    GeneratorOptions gen;
    gen.num_relations = 6 + i % 5;
    batch.push_back(GenerateRandomQuery(gen, static_cast<uint64_t>(i)));
  }
  for (QueryTopology t : {QueryTopology::kChain, QueryTopology::kStar,
                          QueryTopology::kCycle, QueryTopology::kClique}) {
    for (int n : {16, 24, 40, 64}) {
      for (uint64_t seed = 0; seed < 5; ++seed) {
        GeneratorOptions gen;
        gen.topology = t;
        gen.num_relations = n;
        batch.push_back(GenerateRandomQuery(gen, 1000 + seed));
      }
    }
  }
  return batch;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = BenchQueries(argc, argv, 5);
  BenchJsonWriter json("parallel");

  std::vector<Query> batch = SeededBatch();
  OptimizerOptions options;

  // Scaling is bounded by the machine: record the core count next to the
  // throughput numbers so a 1.0x curve on a 1-core host reads as what it
  // is, not as a regression.
  json.RecordValue("host/hardware_concurrency",
                   static_cast<double>(std::thread::hardware_concurrency()));

  // Reference costs (and a warm-up) from one sequential run.
  PlannerSession session(options);
  BatchResult reference = session.OptimizeBatch(batch, nullptr);

  std::printf("OptimizeBatch: %zu-query seeded mixed-topology batch, "
              "median over %d runs\n", batch.size(), reps);
  std::printf("%8s  %10s %10s %10s %10s %10s\n", "threads", "wall ms", "qps",
              "p50 ms", "p95 ms", "speedup");

  double qps_single = 0;
  for (int threads : {1, 2, 4, 8}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    std::vector<double> wall, qps, p50, p95;
    for (int rep = 0; rep < reps; ++rep) {
      BatchResult r = session.OptimizeBatch(batch, pool.get());
      wall.push_back(r.stats.wall_ms);
      qps.push_back(r.stats.queries_per_second);
      p50.push_back(r.stats.p50_ms);
      p95.push_back(r.stats.p95_ms);
      // Determinism guard: a parallel run that returns different plans is
      // wrong, whatever its throughput says.
      for (size_t i = 0; i < batch.size(); ++i) {
        double want = reference.results[i].plan->cost;
        double got = r.results[i].plan ? r.results[i].plan->cost : -1;
        if (got != want) {
          std::fprintf(stderr,
                       "FATAL: query %zu cost %g != sequential %g at %d "
                       "threads\n", i, got, want, threads);
          return 1;
        }
      }
    }
    double qps_med = Median(qps);
    if (threads == 1) qps_single = qps_med;
    double speedup = qps_single > 0 ? qps_med / qps_single : 0;
    std::printf("%8d  %10.1f %10.1f %10.3f %10.3f %9.2fx\n", threads,
                Median(wall), qps_med, Median(p50), Median(p95), speedup);

    std::string prefix = "batch100/threads=" + std::to_string(threads);
    json.RecordMs(prefix + "/wall", Median(wall));
    json.RecordValue(prefix + "/qps", qps_med);
    json.RecordValue(prefix + "/p50_ms", Median(p50));
    json.RecordValue(prefix + "/p95_ms", Median(p95));
    json.RecordValue(prefix + "/speedup", speedup);
  }
  std::printf("\n(speedup = qps / single-thread qps; bounded by physical "
              "cores — this host has %u)\n",
              std::thread::hardware_concurrency());
  return 0;
}
