#include "plangen/session.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <utility>
#include <vector>

#include "plangen/plan_cache.h"

namespace eadp {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Nearest-rank percentile of an already-sorted sample (q in (0, 1]).
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

BatchStats AggregateStats(std::vector<double> latencies, double wall_ms,
                          int num_threads) {
  BatchStats stats;
  stats.num_queries = static_cast<int>(latencies.size());
  stats.num_threads = num_threads;
  stats.wall_ms = wall_ms;
  if (wall_ms > 0) {
    stats.queries_per_second =
        static_cast<double>(stats.num_queries) / (wall_ms / 1000.0);
  }
  for (double ms : latencies) stats.total_optimize_ms += ms;
  std::sort(latencies.begin(), latencies.end());
  stats.p50_ms = Percentile(latencies, 0.50);
  stats.p95_ms = Percentile(latencies, 0.95);
  stats.max_ms = latencies.empty() ? 0 : latencies.back();
  return stats;
}

}  // namespace

OptimizeResult PlannerSession::OptimizeImpl(
    const Query& query, const PlanCacheSplitKey* key) const {
  if (options_.plan_cache == nullptr && options_.persistent_cache == nullptr) {
    return OptimizeAdaptiveUncached(query, options_);
  }
  // The one probe/populate path: tiered lookup, drift-band serving,
  // background re-plans.
  if (key != nullptr) return OptimizeThroughCache(query, *key, options_);
  // Self-keyed: the fingerprint is part of this call's work, so a hit's
  // optimize_ms includes it.
  Clock::time_point start = Clock::now();
  PlanCacheSplitKey own = PlanCacheKeySplit(query, options_);
  double fingerprint_ms = MsSince(start);
  OptimizeResult result = OptimizeThroughCache(query, own, options_);
  if (result.stats.cache_hit) result.stats.optimize_ms += fingerprint_ms;
  return result;
}

OptimizeResult PlannerSession::Optimize(const Query& query) const {
  return OptimizeImpl(query, nullptr);
}

OptimizeResult PlannerSession::Optimize(const Query& query,
                                        const PlanCacheSplitKey& key) const {
  return OptimizeImpl(query, &key);
}

BatchResult PlannerSession::OptimizeBatch(std::span<const Query> queries,
                                          ThreadPool* pool) const {
  BatchResult batch;
  size_t n = queries.size();
  batch.results.resize(n);
  std::vector<double> latencies(n, 0.0);
  Clock::time_point start = Clock::now();

  auto plan_one = [this, &queries, &batch, &latencies](size_t i) {
    Clock::time_point q_start = Clock::now();
    batch.results[i] = Optimize(queries[i]);
    latencies[i] = MsSince(q_start);
  };

  int threads = 1;
  if (pool == nullptr || pool->num_threads() <= 1) {
    // Sequential reference path: same per-query facade, same order.
    for (size_t i = 0; i < n; ++i) plan_one(i);
  } else {
    threads = pool->num_threads();
    // One task per query; every task writes only its own slot of
    // `results`/`latencies` (sized above, never resized while in flight),
    // so the futures' fan-in is the only synchronization needed.
    std::vector<std::future<void>> futures;
    futures.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      futures.push_back(pool->Submit([&plan_one, i] { plan_one(i); }));
    }
    // Join *every* future before any rethrow: tasks capture this frame's
    // locals, so unwinding while some are still queued or running would
    // leave them executing against a dead frame (the pool's drain-on-
    // destruct guarantees queued tasks run, which here would be UB, and a
    // caller-owned pool would race the unwound stack directly).
    std::exception_ptr first_error;
    for (std::future<void>& f : futures) {
      try {
        f.get();
      } catch (...) {
        if (first_error == nullptr) first_error = std::current_exception();
      }
    }
    if (first_error != nullptr) std::rethrow_exception(first_error);
  }

  batch.stats = AggregateStats(std::move(latencies), MsSince(start), threads);
  for (const OptimizeResult& r : batch.results) {
    if (r.stats.cache_hit) ++batch.stats.cache_hits;
  }
  return batch;
}

}  // namespace eadp
