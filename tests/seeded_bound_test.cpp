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
  const OptimizerOptions options;
  for (const Labeled& c : LargeCorpus()) {
    OptimizeResult seeded = OptimizeAdaptiveUncached(c.query, options);
    OptimizeResult want = UnseededFacade(c.query, options);
    ASSERT_NE(seeded.plan, nullptr) << c.label;
    ASSERT_NE(want.plan, nullptr) << c.label;
    EXPECT_EQ(PlanOnlyBytes(seeded), PlanOnlyBytes(want)) << c.label;
    EXPECT_EQ(seeded.stats.algorithm, want.stats.algorithm) << c.label;

    // GOO's original-tree fallback (a 2-merge budget) against IDP: the
    // facade's large path rebuilt from the race pieces, where GOO's cost
    // bounds IDP, matches the unbounded race.
    std::string label = c.label + " goo merge budget 2";
    OptimizeResult fallback_goo = OptimizeGreedy(c.query, options, 2);
    ASSERT_NE(fallback_goo.plan, nullptr) << label;
    const double goo_cost = fallback_goo.plan->cost;
    OptimizeResult bounded_race = PickAdaptiveWinner(
        OptimizeIdp(c.query, options, goo_cost), fallback_goo);
    OptimizeResult unbounded_race = PickAdaptiveWinner(
        OptimizeIdp(c.query, options), OptimizeGreedy(c.query, options, 2));
    ASSERT_NE(bounded_race.plan, nullptr) << label;
    EXPECT_EQ(PlanOnlyBytes(bounded_race), PlanOnlyBytes(unbounded_race))
        << label;
    EXPECT_EQ(bounded_race.stats.algorithm, unbounded_race.stats.algorithm)
        << label;

    // No subproblem is planned twice: the bounded run's cuts are a
    // subset of the unbounded run's, under either GOO cost.
    OptimizeResult goo = OptimizeGreedy(c.query, options);
    ASSERT_NE(goo.plan, nullptr) << c.label;
    OptimizeResult unbounded = OptimizeIdp(c.query, options);
    for (double bound : {goo.plan->cost, goo_cost}) {
      OptimizeResult bounded = OptimizeIdp(c.query, options, bound);
      EXPECT_LE(bounded.stats.ccp_count, unbounded.stats.ccp_count)
          << c.label << " bound=" << bound;
    }
  }
}

TEST(SeededBound, IdpBoundedByItsOwnCostKeepsItsPlan) {
  // The tightest bounds: kIdp's own final cost keeps the plan byte for
  // byte (ties are kept, since PickAdaptiveWinner gives them to kIdp), and
  // the next double below it makes the run give up. The random trees here
  // salvage under the bound, where reachable classes the bound emptied
  // must not be mistaken for conflict-blocked ones.
  const OptimizerOptions options;
  int planned = 0;
  for (const Labeled& c : LargeCorpus()) {
    if (c.query.NumRelations() > 20) continue;
    OptimizeResult unbounded = OptimizeIdp(c.query, options);
    if (unbounded.plan == nullptr) {
      // Conflict-blocked everywhere: any bound gives up too.
      EXPECT_EQ(OptimizeIdp(c.query, options, 1e300).plan, nullptr)
          << c.label;
      continue;
    }
    ++planned;
    const double cost = unbounded.plan->cost;
    OptimizeResult at = OptimizeIdp(c.query, options, cost);
    ASSERT_NE(at.plan, nullptr) << c.label;
    EXPECT_EQ(PlanOnlyBytes(at), PlanOnlyBytes(unbounded)) << c.label;
    EXPECT_LE(at.stats.ccp_count, unbounded.stats.ccp_count) << c.label;
    EXPECT_EQ(OptimizeIdp(c.query, options, std::nextafter(cost, 0.0)).plan,
              nullptr)
        << c.label;
  }
  EXPECT_GT(planned, 15);
}

TEST(SeededBound, GreedyPlanCostIsTheGreedyPlansCost) {
  const OptimizerOptions options;
  for (const Labeled& c : ExactCorpus()) {
    for (int merge_budget : {-1, 1}) {  // 1: the original-tree fallback
      OptimizeResult goo = OptimizeGreedy(c.query, options, merge_budget);
      ASSERT_NE(goo.plan, nullptr) << c.label;
      EXPECT_EQ(GreedyPlanCost(c.query, options, merge_budget),
                goo.plan->cost)
          << c.label << " merge_budget=" << merge_budget;
    }
  }
}

}  // namespace
}  // namespace eadp
