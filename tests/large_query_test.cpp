// Tier-1 coverage of the large-query subsystem (plangen/large_query.h):
//
//   * differential optimality — on every corpus query small enough to
//     enumerate exhaustively (n <= 8), the adaptive facade is cost-identical
//     to kEaPrune, and the kGoo/kIdp/original costs are finite and never
//     beat the optimum (with the kIdp/optimum ratio bounded and logged);
//   * structural validity — every plan any strategy produces passes
//     plan_validator, up to the seeded 100-relation topologies;
//   * facade policy — relation count decides exact vs. large-query, and
//     the 100-relation acceptance case optimizes within the budget;
//   * GOO pin — kGoo's cost bits and counters on 20/50/100-relation
//     queries, unlimited and through the merge-budget fallback;
//   * exec smoke — kGoo/kIdp plans compute the kDphyp baseline's rows
//     (the broad sweep lives in large_query_slow_test, ctest label
//     "slow").

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "plangen/large_query.h"
#include "plangen/plan_validator.h"
#include "plangen/plangen.h"
#include "plangen/session.h"
#include "queries/data_generator.h"
#include "queries/query_generator.h"
#include "tests/test_util.h"

namespace eadp {
namespace {

// Wall-clock assertions use the shared kTimingPinned gate from
// tests/test_util.h (optimized, un-instrumented builds only).

std::vector<QueryTopology> StructuredTopologies() {
  return {QueryTopology::kChain, QueryTopology::kStar, QueryTopology::kCycle,
          QueryTopology::kClique};
}

/// The small differential corpus: every structured topology up to n = 9
/// (n = 9 exceeds idp_block_size + 2, so kIdp genuinely stitches) plus the
/// paper's random operator trees (mixed operators and inner-only).
std::vector<Query> SmallCorpus() {
  std::vector<Query> corpus;
  for (QueryTopology t : StructuredTopologies()) {
    for (int n = 2; n <= 9; ++n) {
      for (uint64_t seed = 0; seed < 3; ++seed) {
        GeneratorOptions gen;
        gen.topology = t;
        gen.num_relations = n;
        corpus.push_back(GenerateRandomQuery(gen, seed));
      }
    }
  }
  for (uint64_t seed = 0; seed < 10; ++seed) {
    GeneratorOptions gen;
    gen.num_relations = 3 + static_cast<int>(seed % 4);
    corpus.push_back(GenerateRandomQuery(gen, seed));
    gen.num_relations = 5 + static_cast<int>(seed % 4);
    gen.inner_joins_only = true;
    corpus.push_back(GenerateRandomQuery(gen, seed + 500));
  }
  return corpus;
}

void ExpectValid(const OptimizeResult& r, const Query& query,
                 const char* label) {
  ASSERT_NE(r.plan, nullptr) << label;
  std::vector<std::string> violations = ValidatePlan(r.plan, query);
  EXPECT_TRUE(violations.empty())
      << label << ": " << violations.size() << " violations, first: "
      << violations.front();
}

TEST(LargeQueryDifferential, AdaptiveMatchesExactOptimumBelowThreshold) {
  // With the exact-DP threshold at its default (12 >= corpus n), the
  // facade must route to the exact enumeration — identical cost, not just
  // close: it literally runs the same DP.
  for (const Query& query : SmallCorpus()) {
    OptimizerOptions options;  // kEaPrune, adaptive_exact_relations = 12
    OptimizeResult exact = Optimize(query, options);
    OptimizeResult adaptive = PlannerSession(options).Optimize(query);
    ASSERT_NE(exact.plan, nullptr);
    ASSERT_NE(adaptive.plan, nullptr);
    EXPECT_EQ(adaptive.stats.algorithm, Algorithm::kEaPrune);
    EXPECT_EQ(adaptive.plan->cost, exact.plan->cost) << query.ToString();
  }
}

TEST(LargeQueryDifferential, HeuristicCostsBracketedByOptimum) {
  // kGoo and kIdp never beat the exact optimum, stay finite, and validate.
  // The kIdp-vs-optimum ratio is logged and bounded on the seeded corpus;
  // the bound is empirical (worst observed ~3.8 for kIdp, ~2.6 for kGoo)
  // with headroom — a regression past it means a real quality loss, not
  // noise, since everything is seeded.
  double worst_idp = 1, worst_goo = 1;
  int idp_planned = 0, total = 0;
  for (const Query& query : SmallCorpus()) {
    ++total;
    OptimizerOptions options;
    OptimizeResult exact = Optimize(query, options);
    ASSERT_NE(exact.plan, nullptr);
    double optimum = exact.plan->cost;

    options.algorithm = Algorithm::kGoo;
    OptimizeResult goo = Optimize(query, options);
    ExpectValid(goo, query, "kGoo");
    EXPECT_TRUE(std::isfinite(goo.plan->cost));
    EXPECT_GE(goo.plan->cost, optimum * (1 - 1e-9));
    if (optimum > 0) worst_goo = std::max(worst_goo, goo.plan->cost / optimum);

    options.algorithm = Algorithm::kIdp;
    OptimizeResult idp = Optimize(query, options);
    if (idp.plan != nullptr) {
      ++idp_planned;
      ExpectValid(idp, query, "kIdp");
      EXPECT_TRUE(std::isfinite(idp.plan->cost));
      EXPECT_GE(idp.plan->cost, optimum * (1 - 1e-9));
      if (optimum > 0) {
        worst_idp = std::max(worst_idp, idp.plan->cost / optimum);
      }
    }

    options.algorithm = Algorithm::kEaPrune;
    OptimizeResult original = OptimizeOriginal(query, options);
    ExpectValid(original, query, "original");
    EXPECT_GE(original.plan->cost, optimum * (1 - 1e-9));
  }
  std::printf("[corpus %d queries] worst kIdp/optimum = %.3f (%d planned), "
              "worst kGoo/optimum = %.3f\n",
              total, worst_idp, idp_planned, worst_goo);
  EXPECT_LE(worst_idp, 6.0);
  EXPECT_LE(worst_goo, 5.0);
  // kIdp must actually plan the overwhelming share of the corpus (the
  // kGoo fallback exists for the rest).
  EXPECT_GE(idp_planned * 10, total * 9);
}

TEST(LargeQueryFacade, RelationCountSelectsTheStrategy) {
  GeneratorOptions gen;
  gen.topology = QueryTopology::kChain;
  gen.num_relations = 8;
  Query small = GenerateRandomQuery(gen, 3);
  OptimizerOptions options;
  EXPECT_EQ(PlannerSession(options).Optimize(small).stats.algorithm,
            Algorithm::kEaPrune);

  gen.num_relations = 20;
  Query large = GenerateRandomQuery(gen, 3);
  OptimizeResult r = PlannerSession(options).Optimize(large);
  ASSERT_NE(r.plan, nullptr);
  EXPECT_TRUE(r.stats.algorithm == Algorithm::kGoo ||
              r.stats.algorithm == Algorithm::kIdp);

  // Raising the threshold routes the same query to the exhaustive
  // enumeration. With the baseline insertion policy: kEaPrune's plan
  // lists at 20 relations are exactly the wall the facade exists to
  // avoid, but DPhyp's single-plan table enumerates a 20-chain in
  // microseconds.
  options.adaptive_exact_relations = 20;
  options.algorithm = Algorithm::kDphyp;
  EXPECT_EQ(PlannerSession(options).Optimize(large).stats.algorithm,
            Algorithm::kDphyp);
}

TEST(LargeQueryFacade, HundredRelationQueriesOptimizeWithinBudget) {
  // The acceptance case: seeded 100-relation queries of every topology
  // pass through the adaptive facade to a validator-clean plan, in under
  // 100 ms on un-instrumented builds.
  for (QueryTopology t : StructuredTopologies()) {
    GeneratorOptions gen;
    gen.topology = t;
    gen.num_relations = 100;
    Query query = GenerateRandomQuery(gen, 1);
    OptimizeResult r = PlannerSession().Optimize(query);
    ExpectValid(r, query, TopologyName(t));
    EXPECT_TRUE(std::isfinite(r.plan->cost));
    EXPECT_EQ(r.plan->rels, query.AllRelations());
    if (kTimingPinned) {
      EXPECT_LT(r.stats.optimize_ms, 100) << TopologyName(t);
    }
  }
}

TEST(LargeQueryValidity, MidSizeTopologiesValidateUnderAllStrategies) {
  for (QueryTopology t : StructuredTopologies()) {
    for (int n : {20, 50}) {
      GeneratorOptions gen;
      gen.topology = t;
      gen.num_relations = n;
      Query query = GenerateRandomQuery(gen, 2);
      for (Algorithm a : {Algorithm::kGoo, Algorithm::kIdp}) {
        OptimizerOptions options;
        options.algorithm = a;
        OptimizeResult r = Optimize(query, options);
        if (a == Algorithm::kIdp && r.plan == nullptr) continue;  // clique
        ExpectValid(r, query, AlgorithmName(a));
      }
    }
  }
}

TEST(LargeQueryGooPin, CostBitsAndCountersMatchRecordedValues) {
  // kGoo's plan cost bits, ccp_count (pairs costed) and plans_built on
  // seeded (seed 1) 20/50/100-relation queries of every structured
  // topology, unlimited and with a 5-merge budget that takes the
  // original-tree fallback. They pin the pair scan order, its strict-<
  // tie rule and the pair memo's hit/miss pattern: changing any of them
  // moves a cost or a counter. The 100-relation star's 23030 plans are
  // what the large facade pays there.
  struct Pin {
    QueryTopology topology;
    int n;
    int merge_budget;
    uint64_t cost_bits;
    uint64_t ccp_count;
    uint64_t plans_built;
  };
  const Pin pins[] = {
      {QueryTopology::kChain, 20, -1, 0x40215000a10365e7ull, 361, 174},
      {QueryTopology::kChain, 20, 5, 0x40884a3bf432a418ull, 275, 141},
      {QueryTopology::kChain, 50, -1, 0x4044c9a027b64930ull, 2401, 698},
      {QueryTopology::kChain, 50, 5, 0x4086aaff6357af61ull, 1460, 353},
      {QueryTopology::kChain, 100, -1, 0x403a91ebc2b28b76ull, 9801, 1231},
      {QueryTopology::kChain, 100, 5, 0x4087a6a705bfb2afull, 5435, 660},
      {QueryTopology::kStar, 20, -1, 0x403a8e15515f6bc5ull, 361, 891},
      {QueryTopology::kStar, 20, 5, 0x4078876355bc3909ull, 275, 448},
      {QueryTopology::kStar, 50, -1, 0x40215638952034e6ull, 2401, 5923},
      {QueryTopology::kStar, 50, 5, 0x4082d0bc6d3229b2ull, 1460, 1243},
      {QueryTopology::kStar, 100, -1, 0x4020734f88eeb9d5ull, 9801, 23030},
      {QueryTopology::kStar, 100, 5, 0x407f95bcea2ffc39ull, 5435, 2524},
      {QueryTopology::kCycle, 20, -1, 0x4021a03f6fae970eull, 361, 164},
      {QueryTopology::kCycle, 20, 5, 0x40884a3bf42d1fb0ull, 275, 138},
      {QueryTopology::kCycle, 50, -1, 0x4036c304b8b27144ull, 2401, 692},
      {QueryTopology::kCycle, 50, 5, 0x4086aaff6357af61ull, 1460, 347},
      {QueryTopology::kCycle, 100, -1, 0x403a91ebc2a84544ull, 9801, 1223},
      {QueryTopology::kCycle, 100, 5, 0x4087a6a705bfb2afull, 5435, 659},
      {QueryTopology::kClique, 20, -1, 0x4059f674a63ab0aeull, 361, 108},
      {QueryTopology::kClique, 20, 5, 0x4077c51aa385314bull, 275, 88},
      {QueryTopology::kClique, 50, -1, 0x4060c8d5acfefa77ull, 2401, 286},
      {QueryTopology::kClique, 50, 5, 0x4082ba16fec0ac01ull, 1460, 178},
      {QueryTopology::kClique, 100, -1, 0x405e0ebe4ddd07acull, 9801, 557},
      {QueryTopology::kClique, 100, 5, 0x407f22fe848c61e1ull, 5435, 328},
  };
  for (const Pin& pin : pins) {
    GeneratorOptions gen;
    gen.topology = pin.topology;
    gen.num_relations = pin.n;
    Query query = GenerateRandomQuery(gen, 1);
    OptimizeResult r =
        OptimizeGreedy(query, OptimizerOptions{}, pin.merge_budget);
    ASSERT_NE(r.plan, nullptr);
    SCOPED_TRACE(std::string(TopologyName(pin.topology)) + " n=" +
                 std::to_string(pin.n) + " budget " +
                 std::to_string(pin.merge_budget));
    EXPECT_EQ(std::bit_cast<uint64_t>(r.plan->cost), pin.cost_bits)
        << r.plan->cost;
    EXPECT_EQ(r.stats.ccp_count, pin.ccp_count);
    EXPECT_EQ(r.stats.plans_built, pin.plans_built);
  }
}

TEST(LargeQueryGooFallback, PartialMergeFallbackValidatesAndMatchesOriginal) {
  // Regression for the kGoo original-tree fallback: when greedy merging
  // stops mid-run with units already merged, the fallback discards those
  // units and rebuilds the canonical tree. The discarded-unit state must
  // not leak into the result: the plan validates and costs exactly what
  // OptimizeOriginal produces (never more). The natural trigger (conflict
  // rules blocking every remaining pair) has no known tree-shaped witness
  // — see the audit note in large_query.cc — so the merge budget drives
  // the same branch after 0, 1, 2 and 3 genuine merges.
  for (const Query& query : SmallCorpus()) {
    OptimizerOptions options;
    OptimizeResult original = OptimizeOriginal(query, options);
    ASSERT_NE(original.plan, nullptr);
    for (int budget : {0, 1, 2, 3}) {
      OptimizeResult fallback = OptimizeGreedy(query, options, budget);
      ExpectValid(fallback, query, "kGoo fallback");
      EXPECT_EQ(fallback.stats.algorithm, Algorithm::kGoo);
      EXPECT_TRUE(std::isfinite(fallback.plan->cost));
      EXPECT_LE(fallback.plan->cost, original.plan->cost) << budget;
      EXPECT_EQ(fallback.plan->rels, query.AllRelations());
    }
    // An unlimited budget is the production path: same result as kGoo
    // through Optimize (the seam must be inert at -1).
    OptimizeResult unlimited = OptimizeGreedy(query, options, -1);
    OptimizerOptions plain;
    plain.algorithm = Algorithm::kGoo;
    OptimizeResult reference = Optimize(query, plain);
    ASSERT_NE(unlimited.plan, nullptr);
    ASSERT_NE(reference.plan, nullptr);
    EXPECT_EQ(unlimited.plan->cost, reference.plan->cost);
  }
}

TEST(LargeQueryGooFallback, FallbackPlanComputesCanonicalRows) {
  // Exec depth for the fallback path: a partially-merged run that falls
  // back must still compute the canonical rows.
  for (uint64_t seed = 0; seed < 4; ++seed) {
    GeneratorOptions gen;
    gen.num_relations = 4 + static_cast<int>(seed);
    Query query = GenerateRandomQuery(gen, seed);
    Database db = GenerateDatabase(query, seed * 17 + 3);
    OptimizeResult fallback = OptimizeGreedy(query, OptimizerOptions{}, 2);
    ASSERT_NE(fallback.plan, nullptr);
    Table got = ExecutePlan(fallback.plan, query, db);
    Table want = ExecuteCanonical(query, db);
    EXPECT_TRUE(Table::BagEquals(got, want)) << "seed " << seed;
  }
}

TEST(LargeQueryExec, SmokeAgainstBaselineRows) {
  // Row-level agreement with the kDphyp baseline on a few mixed-operator
  // queries; the 60-seed sweep is in large_query_slow_test.
  for (uint64_t seed = 0; seed < 6; ++seed) {
    GeneratorOptions gen;
    gen.num_relations = 3 + static_cast<int>(seed % 3);
    Query query = GenerateRandomQuery(gen, seed);
    Database db = GenerateDatabase(query, seed * 31 + 5);
    OptimizerOptions options;
    options.algorithm = Algorithm::kDphyp;
    OptimizeResult baseline = Optimize(query, options);
    ASSERT_NE(baseline.plan, nullptr);
    Table want = ExecutePlan(baseline.plan, query, db);
    for (Algorithm a : {Algorithm::kGoo, Algorithm::kIdp}) {
      options.algorithm = a;
      OptimizeResult r = Optimize(query, options);
      if (a == Algorithm::kIdp && r.plan == nullptr) continue;
      ASSERT_NE(r.plan, nullptr) << AlgorithmName(a);
      Table got = ExecutePlan(r.plan, query, db);
      EXPECT_TRUE(Table::BagEquals(got, want))
          << AlgorithmName(a) << " on seed " << seed << "\n"
          << r.plan->ToString(query.catalog());
    }
  }
}

}  // namespace
}  // namespace eadp
