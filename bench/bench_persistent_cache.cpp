// Cold-start recovery with the disk-backed plan-cache tier: how fast a
// *restarted* process returns to steady-state serving, with and without
// the persistent tier (plangen/persistent_cache.h).
//
// The stream is bench_plan_cache's seeded Zipf(1.0) mix (1000 queries
// over 64 shapes). Phases, per rep in a fresh cache directory:
//
//   populate   — memory + disk tier, full stream: the steady state a
//                long-running server reaches (and write-behinds to disk);
//   warm       — first 100 stream queries again against the warm memory
//                tier: the steady-state hit-rate yardstick;
//   restart/no-disk — fresh memory cache, no disk tier, first 100
//                queries: every shape is re-planned from scratch;
//   restart/disk — fresh memory cache + the REOPENED disk tier (index
//                rebuilt from the segment logs, like a real process
//                restart), first 100 queries: hits come from disk and
//                get promoted.
//
// Headline + hard gate: within the first 100 post-restart queries, the
// disk tier must serve >= 90% of the warm-tier hit rate (the ISSUE's
// recovery bar). Reported alongside: wall clock of the restart window
// with/without the tier (the cold-start tax the tier removes) and the
// on-disk footprint.
//
// Machine-readable records (EADP_BENCH_JSON, see bench_util.h) fold into
// BENCH_results.json via scripts/bench.sh; only the wall-clock medians
// gate in scripts/bench_gate.py.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "plangen/persistent_cache.h"
#include "plangen/plan_cache.h"
#include "plangen/session.h"
#include "queries/query_generator.h"

using namespace eadp;

namespace {

constexpr int kStreamLength = 1000;
constexpr int kDistinctShapes = 64;
constexpr int kRestartWindow = 100;

/// Shape rank -> generator config (identical to bench_plan_cache so the
/// two benches measure the same serving workload).
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

struct WindowResult {
  double wall_ms = 0;
  double hit_rate = 0;   ///< any tier
  double disk_hits = 0;  ///< served from tier 2
};

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Plans the first `window` stream queries through `options`, counting
/// cache-served results.
WindowResult PlanWindow(const std::vector<Query>& queries, int window,
                        const OptimizerOptions& options) {
  WindowResult r;
  Clock::time_point start = Clock::now();
  int hits = 0, disk = 0;
  for (int i = 0; i < window; ++i) {
    OptimizeResult result = PlannerSession(options).Optimize(queries[i]);
    if (result.plan == nullptr) {
      std::fprintf(stderr, "FATAL: query %d produced no plan\n", i);
      std::exit(1);
    }
    if (result.stats.cache_hit) ++hits;
    if (result.stats.cache_tier == 2) ++disk;
  }
  r.wall_ms = MsSince(start);
  r.hit_rate = static_cast<double>(hits) / window;
  r.disk_hits = disk;
  return r;
}

void RemoveTree(const std::string& dir) {
  // Segments only, one level deep — exactly what the cache writes.
  std::string cmd = "rm -rf '" + dir + "'";
  if (std::system(cmd.c_str()) != 0) {
    std::fprintf(stderr, "warning: could not remove %s\n", dir.c_str());
  }
}

std::unique_ptr<PersistentPlanCache> OpenOrDie(
    const PersistentCacheOptions& opts) {
  std::string error;
  auto cache = PersistentPlanCache::Open(opts, &error);
  if (cache == nullptr) {
    std::fprintf(stderr, "FATAL: cannot open %s: %s\n",
                 opts.directory.c_str(), error.c_str());
    std::exit(1);
  }
  return cache;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = BenchQueries(argc, argv, 3);
  BenchJsonWriter json("persistent_cache");

  std::vector<int> stream = ZipfStream();
  std::vector<Query> queries;
  queries.reserve(stream.size());
  for (int shape : stream) queries.push_back(ShapeQuery(shape));

  char root_template[] = "/tmp/eadp_bench_pcache_XXXXXX";
  const char* root = mkdtemp(root_template);
  if (root == nullptr) {
    std::fprintf(stderr, "FATAL: mkdtemp failed\n");
    return 1;
  }

  std::printf("persistent-cache cold start: %d-query Zipf stream, restart "
              "window = first %d queries, median over %d runs\n",
              kStreamLength, kRestartWindow, reps);

  std::vector<double> populate_ms, warm_rate, nodisk_ms, nodisk_rate;
  std::vector<double> disk_ms, disk_rate, disk_tier2, disk_bytes;
  for (int rep = 0; rep < reps; ++rep) {
    PersistentCacheOptions popts;
    popts.directory = std::string(root) + "/rep" + std::to_string(rep);
    popts.write_behind = true;

    WindowResult warm;
    {
      // Long-running server: populate both tiers over the full stream,
      // then measure the steady-state yardstick.
      auto l2 = OpenOrDie(popts);
      PlanCache l1;
      OptimizerOptions options;
      options.plan_cache = &l1;
      options.persistent_cache = l2.get();
      Clock::time_point start = Clock::now();
      for (const Query& q : queries) {
        if (PlannerSession(options).Optimize(q).plan == nullptr) {
          std::fprintf(stderr, "FATAL: no plan in populate phase\n");
          return 1;
        }
      }
      populate_ms.push_back(MsSince(start));
      warm = PlanWindow(queries, kRestartWindow, options);
      l2->Flush();
      disk_bytes.push_back(
          static_cast<double>(l2->Snapshot().bytes_on_disk));
    }  // server "stops": both tiers destroyed, segments stay on disk
    warm_rate.push_back(warm.hit_rate);

    {
      // Restart WITHOUT the disk tier: the pre-PR cold start.
      PlanCache l1;
      OptimizerOptions options;
      options.plan_cache = &l1;
      WindowResult w = PlanWindow(queries, kRestartWindow, options);
      nodisk_ms.push_back(w.wall_ms);
      nodisk_rate.push_back(w.hit_rate);
    }
    {
      // Restart WITH the disk tier: reopen rebuilds the index from the
      // segment logs, exactly as a new process would.
      auto l2 = OpenOrDie(popts);
      PlanCache l1;
      OptimizerOptions options;
      options.plan_cache = &l1;
      options.persistent_cache = l2.get();
      WindowResult w = PlanWindow(queries, kRestartWindow, options);
      disk_ms.push_back(w.wall_ms);
      disk_rate.push_back(w.hit_rate);
      disk_tier2.push_back(w.disk_hits);
    }
  }
  RemoveTree(root);

  double warm = Median(warm_rate);
  double with_disk = Median(disk_rate);
  double without_disk = Median(nodisk_rate);
  double tax_ms = Median(nodisk_ms);
  double recovered_ms = Median(disk_ms);

  std::printf("%24s  %10s %10s %10s\n", "phase", "wall ms", "hit rate",
              "tier-2 hits");
  std::printf("%24s  %10.1f %9.1f%% %10s\n", "populate (1000 q)",
              Median(populate_ms), 0.0, "-");
  std::printf("%24s  %10s %9.1f%% %10s\n", "steady state (warm)", "-",
              100 * warm, "-");
  std::printf("%24s  %10.1f %9.1f%% %10s\n", "restart, no disk tier",
              tax_ms, 100 * without_disk, "0");
  std::printf("%24s  %10.1f %9.1f%% %10.0f\n", "restart, disk tier",
              recovered_ms, 100 * with_disk, Median(disk_tier2));
  std::printf("on-disk footprint: %.1f KiB in segment logs\n",
              Median(disk_bytes) / 1024.0);
  double speedup = recovered_ms > 0 ? tax_ms / recovered_ms : 0;
  std::printf("cold-start wall-clock tax removed: %.1fx (%0.1f ms -> %0.1f "
              "ms over the %d-query window)\n",
              speedup, tax_ms, recovered_ms, kRestartWindow);

  json.RecordMs("zipf1000/populate/wall", Median(populate_ms));
  json.RecordMs("restart100/no_disk/wall", tax_ms);
  json.RecordMs("restart100/disk/wall", recovered_ms);
  json.RecordValue("zipf1000/warm_hit_rate", warm);
  json.RecordValue("restart100/no_disk/hit_rate", without_disk);
  json.RecordValue("restart100/disk/hit_rate", with_disk);
  json.RecordValue("restart100/disk/tier2_hits", Median(disk_tier2));
  json.RecordValue("restart100/cold_start_speedup", speedup);
  json.RecordValue("disk/footprint_bytes", Median(disk_bytes));

  // The ISSUE's recovery bar: a restarted process must serve >= 90% of
  // the warm-tier hit rate within its first 100 queries.
  if (warm > 0 && with_disk < 0.9 * warm) {
    std::fprintf(stderr,
                 "FATAL: restart hit rate %.1f%% < 90%% of warm %.1f%%\n",
                 100 * with_disk, 100 * warm);
    return 1;
  }
  return 0;
}
