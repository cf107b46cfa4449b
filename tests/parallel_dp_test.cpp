// Intra-query parallel DP (plangen/parallel_dp.h): the central claim is
// that any dp_threads value produces plans *cost-identical* to the
// sequential run — not approximately, bit-identically — because the
// level-ordered, class-owner-partitioned schedule reproduces the
// sequential DP-table contents exactly (see parallel_dp.h for the
// induction). The suite pins:
//
//   * cost identity at 1/2/4/8 workers across the small corpus (every
//     topology, n = 3..9) and on exact-DP-scale cliques/cycles (n >= 12),
//     for every exhaustive insertion policy;
//   * table-shape identity (ccp_count, table_plans, table_classes,
//     pruning counters) — a much stronger probe than the final cost: a
//     single reordered or cross-served insertion shows up here;
//   * shard-merge interleaving independence — an oversubscribed 1-thread
//     pool, an injected shared pool, and repeated runs all produce the
//     same result (the merge happens at deterministic barriers, so pool
//     scheduling must not be observable);
//   * plan identity: parallel plans encode (EncodePlan) to the same bytes
//     as the sequential plan, generated column names included — workers
//     build candidates only and the returned tree is materialized once;
//   * execution: parallel-built plans (whose subtrees come from different
//     worker builders) execute to the same rows as the sequential plan;
//   * the kIdp route: subproblems past the group-size gate run the
//     parallel scheduler and stay cost-identical to sequential kIdp;
//   * stats plumbing: dp_workers / barrier wait / pruning counters.
//
// The suite runs under TSan in CI (suite names matched by the tsan job's
// -R regex) — worker shards, the merged table and per-worker builders are
// the objects a data race would corrupt.

#include "plangen/parallel_dp.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "plangen/large_query.h"
#include "plangen/plan_cache.h"
#include "plangen/plan_validator.h"
#include "plangen/plangen.h"
#include "plangen/session.h"
#include "queries/data_generator.h"
#include "queries/query_generator.h"
#include "tests/test_util.h"

namespace eadp {
namespace {

std::vector<Query> SmallCorpus() {
  std::vector<Query> corpus;
  for (QueryTopology t : {QueryTopology::kChain, QueryTopology::kStar,
                          QueryTopology::kCycle, QueryTopology::kClique}) {
    for (int n = 3; n <= 9; n += 2) {
      for (uint64_t seed = 0; seed < 2; ++seed) {
        GeneratorOptions gen;
        gen.topology = t;
        gen.num_relations = n;
        corpus.push_back(GenerateRandomQuery(gen, seed));
      }
    }
  }
  for (uint64_t seed = 0; seed < 4; ++seed) {
    GeneratorOptions gen;
    gen.num_relations = 4 + static_cast<int>(seed);
    corpus.push_back(GenerateRandomQuery(gen, seed));
  }
  return corpus;
}

/// The structural fingerprint of one run that parallelism must not change.
struct RunShape {
  double cost = 0;
  uint64_t ccp_count = 0;
  size_t table_plans = 0;
  size_t table_classes = 0;
  uint64_t pruned_candidates = 0;
  uint64_t pruned_existing = 0;
};

RunShape ShapeOf(const OptimizeResult& r) {
  RunShape s;
  s.cost = r.plan != nullptr ? r.plan->cost : -1;
  s.ccp_count = r.stats.ccp_count;
  s.table_plans = r.stats.table_plans;
  s.table_classes = r.stats.table_classes;
  s.pruned_candidates = r.stats.pruned_candidates;
  s.pruned_existing = r.stats.pruned_existing;
  return s;
}

void ExpectSameShape(const RunShape& seq, const RunShape& par,
                     const std::string& label) {
  EXPECT_EQ(seq.cost, par.cost) << label;  // bit-identical, not near
  EXPECT_EQ(seq.ccp_count, par.ccp_count) << label;
  EXPECT_EQ(seq.table_plans, par.table_plans) << label;
  EXPECT_EQ(seq.table_classes, par.table_classes) << label;
  EXPECT_EQ(seq.pruned_candidates, par.pruned_candidates) << label;
  EXPECT_EQ(seq.pruned_existing, par.pruned_existing) << label;
}

TEST(ParallelDpIdentity, SmallCorpusAllPoliciesAllWorkerCounts) {
  for (const Query& query : SmallCorpus()) {
    for (Algorithm a : {Algorithm::kDphyp, Algorithm::kEaPrune,
                        Algorithm::kH1, Algorithm::kH2}) {
      OptimizerOptions options;
      options.algorithm = a;
      OptimizeResult sequential = Optimize(query, options);
      RunShape seq = ShapeOf(sequential);
      const std::string seq_bytes = PlanOnlyBytes(sequential);
      for (int workers : {2, 4, 8}) {
        options.dp_threads = workers;
        OptimizeResult par = Optimize(query, options);
        std::string label = std::string(AlgorithmName(a)) + " workers=" +
                            std::to_string(workers) + "\n" +
                            query.ToString();
        ExpectSameShape(seq, ShapeOf(par), label);
        // Same tree, same generated column names.
        EXPECT_EQ(PlanOnlyBytes(par), seq_bytes) << label;
        if (par.plan != nullptr) {
          EXPECT_TRUE(ValidatePlan(par.plan, query).empty());
        }
      }
    }
  }
}

TEST(ParallelDpIdentity, EaAllKeepsCompleteListsIdentically) {
  // kEaAll's class lists grow exponentially — n <= 7 keeps it cheap while
  // still exercising multi-plan classes (where per-class insertion order
  // matters most: Append never prunes, so any reordering survives to the
  // table_plans count).
  for (QueryTopology t : {QueryTopology::kCycle, QueryTopology::kClique}) {
    GeneratorOptions gen;
    gen.topology = t;
    gen.num_relations = 7;
    Query query = GenerateRandomQuery(gen, 1);
    OptimizerOptions options;
    options.algorithm = Algorithm::kEaAll;
    RunShape seq = ShapeOf(Optimize(query, options));
    options.dp_threads = 4;
    ExpectSameShape(seq, ShapeOf(Optimize(query, options)), "EA-All n=7");
  }
}

TEST(ParallelDpIdentity, ExactDpScaleCliqueAndCycle) {
  // The workloads the parallel path exists for: n >= 12 exact DP.
  for (QueryTopology t : {QueryTopology::kClique, QueryTopology::kCycle}) {
    GeneratorOptions gen;
    gen.topology = t;
    gen.num_relations = t == QueryTopology::kClique ? 12 : 14;
    Query query = GenerateRandomQuery(gen, 7);
    OptimizerOptions options;  // kEaPrune
    RunShape seq = ShapeOf(Optimize(query, options));
    for (int workers : {2, 8}) {
      options.dp_threads = workers;
      ExpectSameShape(seq, ShapeOf(Optimize(query, options)),
                      std::string("n>=12 workers=") + std::to_string(workers));
    }
  }
}

TEST(ParallelDpIdentity, DenseStarTableSurvivesSharding) {
  // Star is the ccp-dense exact-DP topology (every hub-containing subset
  // is connected: ~k*2^n csg-cmp-pairs, >10k at n=12), so this is the
  // workload where shards genuinely race on overlapping target classes
  // across levels and the merge order matters most. DPhyp keeps the run
  // fast; the shape check covers table size and prune counters too.
  GeneratorOptions gen;
  gen.topology = QueryTopology::kStar;
  gen.num_relations = 12;
  Query query = GenerateRandomQuery(gen, 7);
  OptimizerOptions options;
  options.algorithm = Algorithm::kDphyp;
  RunShape seq = ShapeOf(Optimize(query, options));
  EXPECT_GT(seq.ccp_count, 10000u);
  for (int workers : {2, 4, 8}) {
    options.dp_threads = workers;
    ExpectSameShape(seq, ShapeOf(Optimize(query, options)),
                    std::string("star12 workers=") + std::to_string(workers));
  }
}

TEST(ParallelDpInterleavings, PoolSizeAndInjectionAreUnobservable) {
  GeneratorOptions gen;
  gen.topology = QueryTopology::kClique;
  gen.num_relations = 10;
  Query query = GenerateRandomQuery(gen, 3);
  OptimizerOptions options;
  RunShape seq = ShapeOf(Optimize(query, options));

  // Oversubscribed: 8 logical workers on a 1-thread pool — every merge
  // interleaving collapses to whatever the single pool thread and the
  // caller produce, and the result must not care.
  ThreadPool tiny(1);
  options.dp_threads = 8;
  options.dp_pool = &tiny;
  ExpectSameShape(seq, ShapeOf(Optimize(query, options)), "tiny pool");

  // Injected well-sized pool vs. transient owned pool.
  ThreadPool wide(7);
  options.dp_pool = &wide;
  ExpectSameShape(seq, ShapeOf(Optimize(query, options)), "wide pool");
  options.dp_pool = nullptr;
  ExpectSameShape(seq, ShapeOf(Optimize(query, options)), "owned pool");

  // Repeated runs on one shared pool: deterministic run to run.
  options.dp_pool = &wide;
  RunShape first = ShapeOf(Optimize(query, options));
  for (int i = 0; i < 3; ++i) {
    ExpectSameShape(first, ShapeOf(Optimize(query, options)), "repeat");
  }
}

TEST(ParallelDpExec, ParallelPlansComputeSequentialRows) {
  // Cross-worker plans mix candidate nodes from several worker arenas; the
  // materialized plan must compute the sequential plan's rows.
  for (uint64_t seed = 0; seed < 6; ++seed) {
    GeneratorOptions gen;
    gen.num_relations = 5 + static_cast<int>(seed % 3);
    Query query = GenerateRandomQuery(gen, seed);
    Database db = GenerateDatabase(query, seed * 31 + 5);
    OptimizerOptions options;  // kEaPrune
    OptimizeResult sequential = Optimize(query, options);
    ASSERT_NE(sequential.plan, nullptr);
    Table want = ExecutePlan(sequential.plan, query, db);
    options.dp_threads = 4;
    OptimizeResult parallel = Optimize(query, options);
    ASSERT_NE(parallel.plan, nullptr);
    EXPECT_EQ(parallel.plan->cost, sequential.plan->cost);
    Table got = ExecutePlan(parallel.plan, query, db);
    EXPECT_TRUE(Table::BagEquals(got, want))
        << "seed " << seed << "\n"
        << parallel.plan->ToString(query.catalog());
  }
}

TEST(ParallelDpIdp, GatedSubproblemsMatchSequentialIdp) {
  // idp_block_size = 10 puts the first subproblem of a 14-relation query
  // at the parallel gate (g >= 10) while the stitch rounds stay below it —
  // both routes run within one optimization and must agree with the fully
  // sequential run. Chains and stars keep kIdp combinable.
  for (QueryTopology t : {QueryTopology::kChain, QueryTopology::kStar}) {
    GeneratorOptions gen;
    gen.topology = t;
    gen.num_relations = 14;
    Query query = GenerateRandomQuery(gen, 11);
    OptimizerOptions options;
    options.algorithm = Algorithm::kIdp;
    options.idp_block_size = 10;
    OptimizeResult seq = Optimize(query, options);
    options.dp_threads = 4;
    OptimizeResult par = Optimize(query, options);
    ASSERT_EQ(seq.plan != nullptr, par.plan != nullptr);
    if (seq.plan == nullptr) continue;
    EXPECT_EQ(par.plan->cost, seq.plan->cost);
    EXPECT_EQ(par.stats.ccp_count, seq.stats.ccp_count);
    EXPECT_EQ(par.stats.table_plans, seq.stats.table_plans);
    EXPECT_EQ(par.stats.pruned_candidates, seq.stats.pruned_candidates);
    EXPECT_EQ(par.stats.dp_workers, 4);
    EXPECT_TRUE(ValidatePlan(par.plan, query).empty());
    EXPECT_EQ(PlanOnlyBytes(par), PlanOnlyBytes(seq));
  }
}

TEST(ParallelDpStatsPlumbing, WorkerAndBarrierCountersFilled) {
  GeneratorOptions gen;
  gen.topology = QueryTopology::kClique;
  gen.num_relations = 10;
  Query query = GenerateRandomQuery(gen, 5);

  OptimizerOptions options;
  OptimizeResult seq = Optimize(query, options);
  EXPECT_EQ(seq.stats.dp_workers, 1);
  EXPECT_EQ(seq.stats.dp_barrier_wait_ms, 0);
  // The dominance-pruned clique DP prunes heavily; the counters must see it.
  EXPECT_GT(seq.stats.pruned_candidates + seq.stats.pruned_existing, 0u);

  options.dp_threads = 4;
  OptimizeResult par = Optimize(query, options);
  EXPECT_EQ(par.stats.dp_workers, 4);
  EXPECT_GE(par.stats.dp_barrier_wait_ms, 0);
  EXPECT_EQ(par.stats.pruned_candidates, seq.stats.pruned_candidates);
  EXPECT_EQ(par.stats.pruned_existing, seq.stats.pruned_existing);
  // Worker plans are counted: parallel and sequential build the same trees.
  EXPECT_EQ(par.stats.plans_built, seq.stats.plans_built);
}

TEST(ParallelDpFacade, AdaptiveAndCacheRespectDpThreads) {
  // The facade threads dp_threads through unchanged, and the plan cache
  // keys on it: a sequential entry must not serve a parallel probe.
  GeneratorOptions gen;
  gen.topology = QueryTopology::kCycle;
  gen.num_relations = 9;
  Query query = GenerateRandomQuery(gen, 2);

  OptimizerOptions options;
  OptimizeResult seq = PlannerSession(options).Optimize(query);
  options.dp_threads = 4;
  OptimizeResult par = PlannerSession(options).Optimize(query);
  ASSERT_NE(seq.plan, nullptr);
  ASSERT_NE(par.plan, nullptr);
  EXPECT_EQ(par.plan->cost, seq.plan->cost);

  PlanCache cache;
  options.plan_cache = &cache;
  options.dp_threads = 1;
  OptimizeResult miss1 = PlannerSession(options).Optimize(query);
  EXPECT_FALSE(miss1.stats.cache_hit);
  options.dp_threads = 4;
  OptimizeResult miss2 = PlannerSession(options).Optimize(query);
  EXPECT_FALSE(miss2.stats.cache_hit) << "dp_threads must split cache keys";
  OptimizeResult hit = PlannerSession(options).Optimize(query);
  EXPECT_TRUE(hit.stats.cache_hit);
  EXPECT_EQ(hit.plan->cost, miss2.plan->cost);
}

}  // namespace
}  // namespace eadp
