// Race pins for background re-planning under statistics drift
// (DESIGN.md §14), designed to run under ThreadSanitizer (the CI tsan job
// includes this suite): worker threads probe one shared PlanCache with
// independently drifting statistics — mixing exact hits, re-cost serves,
// inline re-plans and background re-plans on a shared pool — while a
// chaos thread fires Invalidate(). The invariants:
//
//   * every probe returns a plan, and a served plan's arena outlives
//     eviction/invalidation/refresh (handles pin it);
//   * Refresh() racing Lookup()/Insert()/Invalidate() never corrupts a
//     shard (TSan: no data races, no lock-order inversions);
//   * the replan_pending flag admits at most one in-flight background
//     re-plan per entry, and the pool drains before the caches die
//     (declaration order: cache before pool, so the pool's destructor —
//     which runs queued re-plans that touch the cache — finishes first);
//   * a background re-plan, bounded by the re-costed stale plan, swaps in
//     the same plan bytes a fresh unbounded optimization produces.
//
// Each worker drifts a PRIVATE QuerySpec clone (catalog mutation is not
// thread-safe and production drifts arrive through single-writer stats
// pipelines); the shared state under test is the cache + pool machinery.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "plangen/plan_cache.h"
#include "plangen/plangen.h"
#include "plangen/session.h"
#include "queries/mutation.h"
#include "queries/query_generator.h"
#include "tests/test_util.h"

namespace eadp {
namespace {

Query MakeQuery(int n, uint64_t seed) {
  GeneratorOptions gen;
  gen.num_relations = n;
  return GenerateRandomQuery(gen, seed);
}

/// Same gentle drift as drift_test: small cardinality move + consistent
/// distinct repair on one relation.
void DriftGently(Catalog* catalog, Rng* rng) {
  int r = static_cast<int>(rng->UniformInt(0, catalog->num_relations() - 1));
  const RelationDef& rel = catalog->relation(r);
  double card =
      std::max(2.0, rel.cardinality * rng->UniformDouble(0.96, 1.04));
  if (card == rel.cardinality) card += 1.0;
  AttrSet key_attrs;
  for (const AttrSet& key : rel.keys) key_attrs.UnionWith(key);
  catalog->SetCardinality(r, card);
  for (int a : BitsOf(rel.attributes)) {
    double distinct = key_attrs.Contains(a)
                          ? card
                          : std::min(catalog->DistinctOf(a), card);
    catalog->SetDistinct(a, distinct);
  }
}

TEST(DriftConcurrency, BackgroundReplanRacesServingAndInvalidation) {
  // Destruction order matters: the pool's destructor drains re-plan tasks
  // that Put/Refresh into the caches, so the caches must outlive it.
  PlanCache cache;
  ThreadPool replan_pool(3);

  const int kShapes = 4;
  const int kWorkers = 4;
  const int kIters = 40;
  std::vector<Query> shapes;
  for (int s = 0; s < kShapes; ++s) {
    shapes.push_back(MakeQuery(4 + s % 2, 900 + static_cast<uint64_t>(s)));
  }
  // Warm the cache so workers start from structural hits.
  for (const Query& q : shapes) {
    OptimizerOptions warm;
    warm.plan_cache = &cache;
    OptimizeResult r = PlannerSession(warm).Optimize(q);
    ASSERT_NE(r.plan, nullptr);
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> probes{0};
  std::atomic<uint64_t> null_plans{0};

  auto worker = [&](int id) {
    Rng rng(7000 + static_cast<uint64_t>(id));
    // Private drifting replicas of every shape.
    std::vector<QuerySpec> specs;
    for (const Query& q : shapes) specs.push_back(QuerySpec::FromQuery(q));
    for (int i = 0; i < kIters; ++i) {
      size_t s = static_cast<size_t>(rng.UniformInt(0, kShapes - 1));
      if (rng.Bernoulli(0.4)) DriftGently(&specs[s].catalog, &rng);
      Query q = specs[s].ToQuery();
      OptimizerOptions options;
      options.plan_cache = &cache;
      options.replan_pool = &replan_pool;
      // Mix serving policies: workers alternate between re-cost serving
      // (generous band) and strict re-planning, so drifted entries see
      // concurrent avoided serves, background re-plans and refreshes.
      options.drift_tolerance = (i % 2 == 0) ? 1e9 : 0.0;
      OptimizeResult r = PlannerSession(options).Optimize(q);
      probes.fetch_add(1, std::memory_order_relaxed);
      if (r.plan == nullptr) {
        null_plans.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      // Touch the served plan: its arena must be pinned by the result
      // even if Invalidate()/Refresh() just dropped the entry.
      volatile double sink = r.plan->cost + r.plan->cardinality;
      (void)sink;
    }
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) threads.emplace_back(worker, w);
  std::thread chaos([&] {
    Rng rng(31337);
    while (!stop.load(std::memory_order_relaxed)) {
      cache.Invalidate();
      std::this_thread::sleep_for(
          std::chrono::microseconds(rng.UniformInt(200, 2000)));
    }
  });
  for (std::thread& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  chaos.join();

  EXPECT_EQ(null_plans.load(), 0u);
  EXPECT_EQ(probes.load(), static_cast<uint64_t>(kWorkers * kIters));
  // The stream above must actually have exercised the drift machinery.
  PlanCacheStats stats = cache.Snapshot();
  EXPECT_GT(stats.drift_hits, 0u);
}

TEST(DriftConcurrency, ReplanPendingAdmitsOneInFlightReplan) {
  PlanCache cache;
  ThreadPool replan_pool(1);  // serialize re-plans: dedup is observable

  Query q = MakeQuery(5, 321);
  QuerySpec spec = QuerySpec::FromQuery(q);
  OptimizerOptions warm;
  warm.plan_cache = &cache;
  ASSERT_NE(PlannerSession(warm).Optimize(q).plan, nullptr);

  Rng rng(5);
  DriftGently(&spec.catalog, &rng);
  Query drifted = spec.ToQuery();

  // A burst of concurrent strict probes of the same drifted entry: each
  // either re-plans inline... no — with a pool attached they all request
  // a background re-plan, and the CAS on replan_pending must collapse the
  // burst to (at most a few) enqueued tasks, every probe serving the
  // stale plan meanwhile.
  const int kProbers = 6;
  std::vector<std::thread> threads;
  std::atomic<uint64_t> served{0};
  for (int t = 0; t < kProbers; ++t) {
    threads.emplace_back([&] {
      OptimizerOptions options;
      options.plan_cache = &cache;
      options.replan_pool = &replan_pool;
      OptimizeResult r = PlannerSession(options).Optimize(drifted);
      if (r.plan != nullptr && r.stats.cache_hit &&
          r.stats.replan_background) {
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Wait for the in-flight re-plan(s) to land.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (cache.Snapshot().refreshes == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  PlanCacheStats stats = cache.Snapshot();
  EXPECT_GT(served.load(), 0u);
  EXPECT_GE(stats.refreshes, 1u);
  // Dedup bound: strictly fewer re-plans than probes (a fresh entry can
  // re-arm the flag after a refresh lands mid-burst, so exactly-one is
  // too strong — but the burst must not fan out 1:1 into the pool).
  EXPECT_LT(stats.refreshes, static_cast<uint64_t>(kProbers));

  // After the dust settles the entry carries the drifted overlay.
  OptimizerOptions options;
  options.plan_cache = &cache;
  OptimizeResult r = PlannerSession(options).Optimize(drifted);
  EXPECT_TRUE(r.stats.cache_hit);
  EXPECT_FALSE(r.stats.replan_background);
}

TEST(DriftConcurrency, BackgroundReplanMatchesAFreshUnboundedPlan) {
  PlanCache cache;
  ThreadPool replan_pool(2);
  Rng rng(77);
  for (int n = 4; n <= 8; ++n) {
    Query q = MakeQuery(n, 600 + static_cast<uint64_t>(n));
    QuerySpec spec = QuerySpec::FromQuery(q);
    OptimizerOptions options;
    options.plan_cache = &cache;
    options.replan_pool = &replan_pool;
    ASSERT_NE(PlannerSession(options).Optimize(q).plan, nullptr) << "n=" << n;

    DriftGently(&spec.catalog, &rng);
    Query drifted = spec.ToQuery();
    uint64_t refreshes = cache.Snapshot().refreshes;
    OptimizeResult served = PlannerSession(options).Optimize(drifted);
    ASSERT_TRUE(served.stats.replan_background) << "n=" << n;
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (cache.Snapshot().refreshes == refreshes &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(cache.Snapshot().refreshes, refreshes + 1) << "n=" << n;

    OptimizeResult refreshed = PlannerSession(options).Optimize(drifted);
    EXPECT_TRUE(refreshed.stats.cache_hit) << "n=" << n;
    EXPECT_FALSE(refreshed.stats.replan_background) << "n=" << n;
    OptimizeResult fresh = PlannerSession().Optimize(drifted);
    EXPECT_EQ(PlanOnlyBytes(refreshed), PlanOnlyBytes(fresh)) << "n=" << n;
  }
}

}  // namespace
}  // namespace eadp
