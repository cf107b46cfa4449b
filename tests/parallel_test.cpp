// Differential coverage of batch planning (PlannerSession::OptimizeBatch,
// plangen/session.h). Determinism is the contract under test: for every
// query, parallel and sequential runs must produce *cost-identical* plans.
//
//   * OptimizeBatch at 2/4/8 threads == the sequential loop, per query, on
//     a mixed-topology batch spanning the exact-DP and large-query paths —
//     repeated, so a scheduling-dependent divergence has several chances
//     to surface (and TSan several chances to see the interleavings);
//   * batch stats are internally consistent (counts, percentile ordering,
//     throughput arithmetic);
//   * every parallel-produced plan is validator-clean and owned by a
//     live per-result arena (use-after-free here would be ASan's find).

#include "plangen/session.h"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "plangen/plan_validator.h"
#include "queries/query_generator.h"

namespace eadp {
namespace {

/// OptimizeBatch on a transient pool of `threads` workers (1: the
/// sequential reference loop, no pool).
BatchResult BatchOnThreads(std::span<const Query> batch,
                           const OptimizerOptions& options, int threads) {
  if (threads <= 1) {
    return PlannerSession(options).OptimizeBatch(batch, nullptr);
  }
  ThreadPool pool(threads);
  return PlannerSession(options).OptimizeBatch(batch, &pool);
}

/// A seeded mixed-topology batch: random operator trees (exact-DP path)
/// plus structured chain/star/cycle/clique queries straddling the
/// adaptive threshold (large-query path).
std::vector<Query> MixedBatch(int queries_per_bucket) {
  std::vector<Query> batch;
  for (int i = 0; i < queries_per_bucket; ++i) {
    GeneratorOptions gen;
    gen.num_relations = 3 + i % 5;
    batch.push_back(GenerateRandomQuery(gen, static_cast<uint64_t>(i)));
  }
  for (QueryTopology t : {QueryTopology::kChain, QueryTopology::kStar,
                          QueryTopology::kCycle, QueryTopology::kClique}) {
    for (int i = 0; i < queries_per_bucket; ++i) {
      GeneratorOptions gen;
      gen.topology = t;
      gen.num_relations = 10 + 8 * (i % 3);  // 10 exact, 18/26 large-query
      batch.push_back(GenerateRandomQuery(
          gen, static_cast<uint64_t>(100 + i)));
    }
  }
  return batch;
}

TEST(OptimizeBatchDifferential, CostsBitIdenticalToSequentialLoop) {
  std::vector<Query> batch = MixedBatch(4);
  OptimizerOptions options;
  BatchResult sequential = BatchOnThreads(batch, options, 1);
  ASSERT_EQ(sequential.results.size(), batch.size());
  for (int threads : {2, 4, 8}) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      BatchResult parallel = BatchOnThreads(batch, options, threads);
      ASSERT_EQ(parallel.results.size(), batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        const OptimizeResult& want = sequential.results[i];
        const OptimizeResult& got = parallel.results[i];
        ASSERT_EQ(got.plan != nullptr, want.plan != nullptr) << i;
        if (want.plan == nullptr) continue;
        // Bit-identical cost, not approximately equal: both sides run the
        // same deterministic single-threaded code on private state.
        EXPECT_EQ(got.plan->cost, want.plan->cost)
            << "query " << i << " at " << threads << " threads";
        EXPECT_EQ(got.stats.algorithm, want.stats.algorithm) << i;
        EXPECT_EQ(got.plan->rels, want.plan->rels) << i;
      }
    }
  }
}

TEST(OptimizeBatchDifferential, ParallelPlansValidateAndOwnTheirArenas) {
  std::vector<Query> batch = MixedBatch(2);
  BatchResult result = BatchOnThreads(batch, OptimizerOptions{}, 4);
  for (size_t i = 0; i < batch.size(); ++i) {
    const OptimizeResult& r = result.results[i];
    ASSERT_NE(r.plan, nullptr) << i;
    ASSERT_NE(r.arena, nullptr) << i;
    std::vector<std::string> violations = ValidatePlan(r.plan, batch[i]);
    EXPECT_TRUE(violations.empty())
        << "query " << i << ": " << violations.size()
        << " violations, first: " << violations.front();
  }
}

TEST(OptimizeBatchStats, AggregatesAreInternallyConsistent) {
  std::vector<Query> batch = MixedBatch(2);
  BatchResult r = BatchOnThreads(batch, OptimizerOptions{}, 2);
  const BatchStats& s = r.stats;
  EXPECT_EQ(s.num_queries, static_cast<int>(batch.size()));
  EXPECT_EQ(s.num_threads, 2);
  EXPECT_GT(s.wall_ms, 0);
  EXPECT_GT(s.queries_per_second, 0);
  EXPECT_NEAR(s.queries_per_second, s.num_queries / (s.wall_ms / 1000.0),
              1e-6 * s.queries_per_second);
  EXPECT_LE(s.p50_ms, s.p95_ms);
  EXPECT_LE(s.p95_ms, s.max_ms);
  EXPECT_GE(s.total_optimize_ms, s.max_ms);
  // Sequential runs report themselves as one thread regardless of request.
  EXPECT_EQ(BatchOnThreads(batch, OptimizerOptions{}, 1).stats.num_threads, 1);
}

}  // namespace
}  // namespace eadp
