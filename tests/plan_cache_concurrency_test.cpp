// Plan-cache concurrency: probe/insert/evict races from many threads
// (run under TSan in CI), handle liveness under eviction churn, and the
// differential pin that cache-aware batch planning stays cost-identical
// to the sequential cache-off loop.

#include <atomic>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "plangen/plan_cache.h"
#include "plangen/session.h"
#include "queries/fingerprint.h"
#include "queries/query_generator.h"

namespace eadp {
namespace {

Query ShapeQuery(int shape) {
  // A small pool of distinct shapes, reachable by index from any thread
  // (Query is move-only, so every thread regenerates its own instances —
  // generation is deterministic in (options, seed)).
  GeneratorOptions gen;
  gen.num_relations = 4 + shape % 5;
  return GenerateRandomQuery(gen, 100 + static_cast<uint64_t>(shape) / 5);
}

constexpr int kShapes = 12;

TEST(PlanCacheConcurrency, ConcurrentProbeInsertEvictIsConsistent) {
  // Tiny capacity forces continuous eviction while 8 threads probe,
  // insert and *use* served plans; every served cost must match the
  // thread's own fresh run. TSan validates the locking, ASan the
  // eviction-vs-handle lifetime.
  PlanCacheOptions opts;
  opts.capacity = 4;  // << kShapes: constant churn
  opts.num_shards = 2;
  PlanCache cache(opts);

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 60;
  std::atomic<int> mismatches{0};

  std::vector<double> want_cost(kShapes);
  for (int s = 0; s < kShapes; ++s) {
    OptimizerOptions options;
    want_cost[s] = PlannerSession(options).Optimize(ShapeQuery(s)).plan->cost;
  }

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &want_cost, &mismatches, t] {
      OptimizerOptions options;
      options.plan_cache = &cache;
      for (int i = 0; i < kItersPerThread; ++i) {
        int shape = (t * 7 + i * 3) % kShapes;
        Query q = ShapeQuery(shape);
        OptimizeResult r = PlannerSession(options).Optimize(q);
        // Deep-use the (possibly cached, possibly just-evicted) plan.
        if (r.plan == nullptr || r.plan->cost != want_cost[shape] ||
            r.plan->NodeCount() <= 0) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  PlanCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads * kItersPerThread));
  EXPECT_EQ(stats.inserts + stats.duplicate_inserts, stats.misses);
  EXPECT_LE(stats.entries, cache.capacity());
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.hits, 0u);
}

TEST(PlanCacheConcurrency, RacingInsertsOfOneShapeShareOneEntry) {
  // All threads plan the *same* shape simultaneously: first writer wins,
  // everyone else converges on that entry, and every result is
  // cost-identical (determinism makes the race benign; this pins it).
  PlanCache cache;
  constexpr int kThreads = 8;
  std::vector<double> costs(kThreads, -1);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &costs, t] {
      OptimizerOptions options;
      options.plan_cache = &cache;
      costs[t] = PlannerSession(options).Optimize(ShapeQuery(0)).plan->cost;
    });
  }
  for (std::thread& th : threads) th.join();

  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(costs[t], costs[0]);
  PlanCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.inserts, 1u);
}

TEST(PlanCacheConcurrency, InvalidateRacingLookupsIsSafe) {
  // Serving threads keep probing while another thread repeatedly drops
  // everything: lookups may miss but served plans stay valid (their
  // arenas are handle-owned, not cache-owned).
  PlanCache cache;
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};

  OptimizerOptions options;
  double want = PlannerSession(options).Optimize(ShapeQuery(1)).plan->cost;

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, &stop, &bad, want] {
      OptimizerOptions cached;
      cached.plan_cache = &cache;
      while (!stop.load(std::memory_order_relaxed)) {
        OptimizeResult r = PlannerSession(cached).Optimize(ShapeQuery(1));
        if (r.plan == nullptr || r.plan->cost != want) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    cache.Invalidate();
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
  cache.Invalidate();
  EXPECT_EQ(cache.Snapshot().entries, 0u);
}

TEST(PlanCacheConcurrency, OptimizeBatchCacheDifferential) {
  // The acceptance pin at the batch level: a Zipf-ish repeated stream
  // planned through a shared cache at 2/4/8 threads is bit-identical in
  // cost to the sequential cache-off loop, and repeats actually hit.
  std::vector<Query> stream;
  for (int i = 0; i < 60; ++i) stream.push_back(ShapeQuery(i % kShapes));

  OptimizerOptions cache_off;
  BatchResult reference =
      PlannerSession(cache_off).OptimizeBatch(stream, nullptr);
  ASSERT_EQ(reference.stats.cache_hits, 0);

  for (int threads : {2, 4, 8}) {
    PlanCache cache;
    OptimizerOptions cache_on;
    cache_on.plan_cache = &cache;
    ThreadPool pool(threads);

    BatchResult cold = PlannerSession(cache_on).OptimizeBatch(stream, &pool);
    BatchResult warm = PlannerSession(cache_on).OptimizeBatch(stream, &pool);
    for (size_t i = 0; i < stream.size(); ++i) {
      ASSERT_NE(reference.results[i].plan, nullptr);
      EXPECT_EQ(cold.results[i].plan->cost, reference.results[i].plan->cost)
          << "query " << i << " at " << threads << " threads (cold)";
      EXPECT_EQ(warm.results[i].plan->cost, reference.results[i].plan->cost)
          << "query " << i << " at " << threads << " threads (warm)";
      EXPECT_TRUE(warm.results[i].stats.cache_hit);
    }
    // Cold batch: exactly one planning run per distinct shape reaches the
    // cache; the stream's repeats hit either the entry or the
    // first-writer-wins dedup (both end as one entry per shape).
    EXPECT_EQ(cache.Snapshot().entries, static_cast<size_t>(kShapes));
    EXPECT_EQ(warm.stats.cache_hits, static_cast<int>(stream.size()));
    EXPECT_GT(cold.stats.cache_hits, 0);
  }
}

}  // namespace
}  // namespace eadp
