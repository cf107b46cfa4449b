// Seeded bound (DESIGN.md §14): the adaptive facade bounds every cold plan
// by GOO's cost — the exact enumeration through the cost_bound path, and
// kIdp in the large-query race, which gives up once it cannot win. Plans
// must stay byte-identical to the unseeded facade, built here from the
// same public pieces: raw unbounded Optimize below the exact threshold,
// PickAdaptiveWinner(OptimizeIdp, OptimizeGreedy) above it.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "plangen/large_query.h"
#include "plangen/plangen.h"
#include "plangen/session.h"
#include "queries/mutation.h"
#include "queries/query_generator.h"
#include "queries/tpch.h"
#include "tests/test_util.h"

namespace eadp {
namespace {

struct Labeled {
  std::string label;
  Query query;
};

Query Generate(QueryTopology topology, int n, uint64_t seed) {
  GeneratorOptions gen;
  gen.topology = topology;
  gen.num_relations = n;
  return GenerateRandomQuery(gen, seed);
}

/// The n = 3..12 generator corpus (random operator trees, plus chains,
/// stars and cycles, where the bound prunes most) and the six TPC-H
/// skeletons.
std::vector<Labeled> ExactCorpus() {
  std::vector<Labeled> corpus;
  for (int n = 3; n <= 12; ++n) {
    for (uint64_t seed = 0; seed < (n < 10 ? 2 : 1); ++seed) {
      corpus.push_back({"random n=" + std::to_string(n) + " seed=" +
                            std::to_string(seed),
                        Generate(QueryTopology::kRandomTree, n, 60 + seed)});
    }
    for (QueryTopology t :
         {QueryTopology::kChain, QueryTopology::kStar, QueryTopology::kCycle}) {
      if (n > 9) continue;  // unbounded stars past 9 take 100s of ms
      corpus.push_back({std::string(TopologyName(t)) + " n=" +
                            std::to_string(n),
                        Generate(t, n, 61)});
    }
  }
  const char* names[] = {"tpch ex", "tpch q1", "tpch q3",
                         "tpch q5", "tpch q10", "tpch q18"};
  Query (*makers[])() = {&MakeTpchEx, &MakeTpchQ1, &MakeTpchQ3,
                         &MakeTpchQ5, &MakeTpchQ10, &MakeTpchQ18};
  for (size_t i = 0; i < 6; ++i) corpus.push_back({names[i], makers[i]()});
  return corpus;
}

/// The unseeded facade: exactly what OptimizeAdaptiveUncached returned
/// before the seed, from public pieces.
OptimizeResult UnseededFacade(const Query& query,
                              const OptimizerOptions& options) {
  if (query.NumRelations() <= options.adaptive_exact_relations) {
    OptimizerOptions exact = options;
    if (!IsExhaustive(exact.algorithm)) exact.algorithm = Algorithm::kEaPrune;
    return Optimize(query, exact);
  }
  return PickAdaptiveWinner(OptimizeIdp(query, options),
                            OptimizeGreedy(query, options));
}

TEST(SeededBound, ExactFacadeReturnsTheUnboundedPlan) {
  ThreadPool dp_pool(3);
  uint64_t seeded_built = 0;
  uint64_t unbounded_built = 0;
  for (const Labeled& c : ExactCorpus()) {
    for (Algorithm algorithm : {Algorithm::kEaAll, Algorithm::kEaPrune}) {
      // EA-All keeps every tree: past 7 relations its unbounded reference
      // runs take seconds (Fig. 16).
      if (algorithm == Algorithm::kEaAll && c.query.NumRelations() > 7) {
        continue;
      }
      for (int threads : {1, 4}) {
        OptimizerOptions options;
        options.algorithm = algorithm;
        options.dp_threads = threads;
        options.dp_pool = &dp_pool;
        std::string label = c.label + " " + AlgorithmName(algorithm) +
                            " threads=" + std::to_string(threads);
        OptimizeResult unbounded = Optimize(c.query, options);
        OptimizeResult seeded = OptimizeAdaptiveUncached(c.query, options);
        ASSERT_NE(unbounded.plan, nullptr) << label;
        ASSERT_NE(seeded.plan, nullptr) << label;
        EXPECT_EQ(PlanOnlyBytes(seeded), PlanOnlyBytes(unbounded)) << label;
        EXPECT_EQ(seeded.stats.algorithm, algorithm) << label;
        EXPECT_LE(seeded.stats.plans_built, unbounded.stats.plans_built)
            << label;
        seeded_built += seeded.stats.plans_built;
        unbounded_built += unbounded.stats.plans_built;
      }
    }
  }
  // The seed is live: over the corpus it prunes most of the work.
  EXPECT_LT(2 * seeded_built, unbounded_built);
}

TEST(SeededBound, DphypAndCallerBoundsSkipTheSeed) {
  for (const Labeled& c : ExactCorpus()) {
    // kDphyp: GOO's eager groupings can undercut the lazy optimum, so the
    // facade runs it exactly as before — same plan, same counters.
    OptimizerOptions dphyp;
    dphyp.algorithm = Algorithm::kDphyp;
    OptimizeResult raw = Optimize(c.query, dphyp);
    OptimizeResult facade = OptimizeAdaptiveUncached(c.query, dphyp);
    ASSERT_NE(facade.plan, nullptr) << c.label;
    EXPECT_EQ(PlanOnlyBytes(facade), PlanOnlyBytes(raw)) << c.label;
    EXPECT_EQ(facade.stats.plans_built, raw.stats.plans_built) << c.label;
    EXPECT_EQ(facade.stats.ccp_count, raw.stats.ccp_count) << c.label;

    // A caller's bound (a drifted re-plan's re-costed cost) is used as is:
    // the facade's run is the raw bounded run, counters included.
    OptimizerOptions prune;
    OptimizeResult optimum = Optimize(c.query, prune);
    ASSERT_NE(optimum.plan, nullptr) << c.label;
    for (double bound : {optimum.plan->cost,
                         std::nextafter(optimum.plan->cost, 0.0)}) {
      OptimizeResult bounded = Optimize(c.query, prune, bound);
      OptimizeResult via_facade =
          OptimizeAdaptiveUncached(c.query, prune, bound);
      EXPECT_EQ(PlanOnlyBytes(via_facade), PlanOnlyBytes(optimum))
          << c.label << " bound=" << bound;
      EXPECT_EQ(via_facade.stats.plans_built, bounded.stats.plans_built)
          << c.label << " bound=" << bound;
    }
  }
}

TEST(SeededBound, GooCostUlpsBelowTheOptimumStillBoundsTheDp) {
  // Rounding alone puts GreedyPlanCost one ulp below the EA-Prune optimum
  // here. Used as the bound unwidened, it would leave the exact DP
  // without a plan and make Optimize re-run it unbounded.
  CorpusEntry entry;
  std::string error;
  ASSERT_TRUE(ParseCorpusEntry("gen random-tree 10 default 1527036425 :",
                               &entry, &error))
      << error;
  Query query = MaterializeSeed(entry.seed);
  OptimizerOptions options;
  OptimizeResult unbounded = Optimize(query, options);
  OptimizeResult facade = PlannerSession(options).Optimize(query);
  ASSERT_NE(unbounded.plan, nullptr);
  ASSERT_NE(facade.plan, nullptr);
  ASSERT_LT(GreedyPlanCost(query, options), unbounded.plan->cost);
  EXPECT_EQ(PlanOnlyBytes(facade), PlanOnlyBytes(unbounded));
  EXPECT_LT(facade.stats.plans_built, unbounded.stats.plans_built);
}

/// Large-path inputs: chains, stars, cycles and cliques at n = 13..40 and
/// 100; random operator trees at n = 13..16, whose conflict-blocked groups
/// send kIdp to its salvage path under the bound; and cliques whose kIdp
/// and kGoo plans cost the same.
std::vector<Labeled> LargeCorpus() {
  std::vector<Labeled> corpus;
  for (QueryTopology t : {QueryTopology::kChain, QueryTopology::kStar,
                          QueryTopology::kCycle, QueryTopology::kClique}) {
    for (int n : {13, 20, 27, 34, 40, 100}) {
      corpus.push_back(
          {std::string(TopologyName(t)) + " n=" + std::to_string(n),
           Generate(t, n, 77)});
    }
  }
  for (int n = 13; n <= 16; ++n) {
    for (uint64_t seed = 500; seed < 504; ++seed) {
      corpus.push_back({"random n=" + std::to_string(n) + " seed=" +
                            std::to_string(seed),
                        Generate(QueryTopology::kRandomTree, n, seed)});
    }
    // kIdp's plan here costs exactly kGoo's: the tie goes to kIdp.
    corpus.push_back({"clique tie n=" + std::to_string(n),
                      Generate(QueryTopology::kClique, n, 502)});
  }
  return corpus;
}

TEST(SeededBound, LargeFacadeMatchesTheUnseededRace) {
  OptimizerOptions fallback;
  fallback.goo_merge_budget = 2;  // GOO's original-tree fallback
  for (const Labeled& c : LargeCorpus()) {
    for (const OptimizerOptions& options : {OptimizerOptions{}, fallback}) {
      std::string label =
          c.label + " goo_merge_budget=" +
          std::to_string(options.goo_merge_budget);
      OptimizeResult seeded = OptimizeAdaptiveUncached(c.query, options);
      OptimizeResult want = UnseededFacade(c.query, options);
      ASSERT_NE(seeded.plan, nullptr) << label;
      ASSERT_NE(want.plan, nullptr) << label;
      EXPECT_EQ(PlanOnlyBytes(seeded), PlanOnlyBytes(want)) << label;
      EXPECT_EQ(seeded.stats.algorithm, want.stats.algorithm) << label;

      // No subproblem is planned twice: the bounded run's cuts are a
      // subset of the unbounded run's.
      OptimizeResult goo = OptimizeGreedy(c.query, options);
      ASSERT_NE(goo.plan, nullptr) << label;
      OptimizeResult bounded = OptimizeIdp(c.query, options, goo.plan->cost);
      OptimizeResult unbounded = OptimizeIdp(c.query, options);
      EXPECT_LE(bounded.stats.ccp_count, unbounded.stats.ccp_count) << label;
    }
  }
}

TEST(SeededBound, IdpBoundedByItsOwnCostKeepsItsPlan) {
  // The tightest bounds: kIdp's own final cost keeps the plan byte for
  // byte (ties are kept, since PickAdaptiveWinner gives them to kIdp), and
  // the next double below it makes the run give up. The random trees here
  // salvage under the bound, where reachable classes the bound emptied
  // must not be mistaken for conflict-blocked ones. The parallel
  // subproblem path (dp_threads > 1, groups of >= 10 units) runs
  // unbounded and only checks its winners.
  ThreadPool dp_pool(3);
  OptimizerOptions h1_inner;
  h1_inner.idp_inner = Algorithm::kH1;
  OptimizerOptions parallel;
  parallel.idp_block_size = 8;
  parallel.dp_threads = 4;
  parallel.dp_pool = &dp_pool;
  int planned = 0;
  for (const Labeled& c : LargeCorpus()) {
    if (c.query.NumRelations() > 20) continue;
    for (const OptimizerOptions& options :
         {OptimizerOptions{}, h1_inner, parallel}) {
      std::string label = c.label + " inner=" +
                          AlgorithmName(options.idp_inner) +
                          " threads=" + std::to_string(options.dp_threads);
      OptimizeResult unbounded = OptimizeIdp(c.query, options);
      if (unbounded.plan == nullptr) {
        // Conflict-blocked everywhere: any bound gives up too.
        EXPECT_EQ(OptimizeIdp(c.query, options, 1e300).plan, nullptr)
            << label;
        continue;
      }
      ++planned;
      const double cost = unbounded.plan->cost;
      OptimizeResult at = OptimizeIdp(c.query, options, cost);
      ASSERT_NE(at.plan, nullptr) << label;
      EXPECT_EQ(PlanOnlyBytes(at), PlanOnlyBytes(unbounded)) << label;
      EXPECT_LE(at.stats.ccp_count, unbounded.stats.ccp_count) << label;
      EXPECT_EQ(OptimizeIdp(c.query, options, std::nextafter(cost, 0.0)).plan,
                nullptr)
          << label;
    }
  }
  EXPECT_GT(planned, 30);
}

TEST(SeededBound, GreedyPlanCostIsTheGreedyPlansCost) {
  OptimizerOptions fallback;
  fallback.goo_merge_budget = 1;
  for (const Labeled& c : ExactCorpus()) {
    for (const OptimizerOptions& options : {OptimizerOptions{}, fallback}) {
      OptimizeResult goo = OptimizeGreedy(c.query, options);
      ASSERT_NE(goo.plan, nullptr) << c.label;
      EXPECT_EQ(GreedyPlanCost(c.query, options), goo.plan->cost) << c.label;
    }
  }
}

}  // namespace
}  // namespace eadp
