// Broad, exec-backed validation of the large-query subsystem — the deep
// sweeps behind large_query_test's smoke coverage. Registered under the
// ctest label "slow": tier-1 stays fast, CI runs this suite in its own
// timeout-guarded job (.github/workflows/ci.yml).
//
// The master property, extended to the new strategies: every plan kGoo and
// kIdp produce computes exactly the canonical result — and therefore the
// kDphyp baseline's rows — on randomized data. Eager-aggregation placement
// differs wildly between the strategies (that is the point), so row-level
// agreement exercises the whole ⊗ adjustment machinery on stitched plans.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "plangen/large_query.h"
#include "plangen/plan_validator.h"
#include "plangen/plangen.h"
#include "plangen/session.h"
#include "queries/data_generator.h"
#include "queries/query_generator.h"
#include "tests/test_util.h"

namespace eadp {
namespace {

std::vector<QueryTopology> StructuredTopologies() {
  return {QueryTopology::kChain, QueryTopology::kStar, QueryTopology::kCycle,
          QueryTopology::kClique};
}

class MixedOperatorSweep : public ::testing::TestWithParam<int> {};

TEST_P(MixedOperatorSweep, StrategiesMatchBaselineAndCanonicalRows) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  GeneratorOptions gen;
  gen.num_relations = 3 + static_cast<int>(seed % 4);  // 3..6
  Query query = GenerateRandomQuery(gen, seed);
  Database db = GenerateDatabase(query, seed * 31 + 5);

  OptimizerOptions options;
  options.algorithm = Algorithm::kDphyp;
  OptimizeResult baseline = Optimize(query, options);
  ASSERT_NE(baseline.plan, nullptr);
  Table baseline_rows = ExecutePlan(baseline.plan, query, db);

  for (Algorithm a : {Algorithm::kGoo, Algorithm::kIdp}) {
    options.algorithm = a;
    OptimizeResult r = Optimize(query, options);
    if (a == Algorithm::kIdp && r.plan == nullptr) continue;
    ASSERT_NE(r.plan, nullptr) << AlgorithmName(a);
    EXPECT_TRUE(ValidatePlan(r.plan, query).empty()) << AlgorithmName(a);
    std::string message;
    EXPECT_TRUE(PlanMatchesCanonical(r.plan, query, db, &message))
        << AlgorithmName(a) << " vs canonical on seed " << seed << "\n"
        << message;
    Table got = ExecutePlan(r.plan, query, db);
    EXPECT_TRUE(Table::BagEquals(got, baseline_rows))
        << AlgorithmName(a) << " vs kDphyp on seed " << seed << "\n"
        << r.plan->ToString(query.catalog());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedOperatorSweep, ::testing::Range(0, 60));

class TopologyExecSweep : public ::testing::TestWithParam<int> {};

TEST_P(TopologyExecSweep, StructuredTopologiesComputeCanonicalRows) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  for (QueryTopology t : StructuredTopologies()) {
    for (int n : {4, 6, 8}) {
      GeneratorOptions gen;
      gen.topology = t;
      gen.num_relations = n;
      Query query = GenerateRandomQuery(gen, seed);
      Database db = GenerateDatabase(query, seed * 17 + 3);
      for (Algorithm a :
           {Algorithm::kGoo, Algorithm::kIdp, Algorithm::kEaPrune}) {
        OptimizerOptions options;
        options.algorithm = a;
        OptimizeResult r = Optimize(query, options);
        if (a == Algorithm::kIdp && r.plan == nullptr) continue;
        ASSERT_NE(r.plan, nullptr)
            << AlgorithmName(a) << " " << TopologyName(t) << " n=" << n;
        std::string message;
        EXPECT_TRUE(PlanMatchesCanonical(r.plan, query, db, &message))
            << AlgorithmName(a) << " " << TopologyName(t) << " n=" << n
            << " seed " << seed << "\n"
            << message;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologyExecSweep, ::testing::Range(0, 10));

TEST(LargeQuerySlowDifferential, DeepSeededRatioSweep) {
  // The wider, deeper version of the tier-1 differential test: more seeds
  // and n up to 10, where the exact optimum is still computable but kIdp
  // stitches across several subproblems.
  //
  // Three ratios against the exact optimum:
  //   * the facade in large-query mode (exact threshold forced to 0) —
  //     the production-relevant quality, tightly bounded;
  //   * kGoo alone — tightly bounded;
  //   * kIdp alone — logged, loosely bounded: on cycles the bounded
  //     subproblem optimizes the open arc without seeing the closing
  //     edge, which can cost ~50x (exactly the case the facade's min()
  //     over both strategies exists for; see DESIGN.md §8).
  double worst_idp = 1, worst_goo = 1, worst_facade = 1;
  for (QueryTopology t : StructuredTopologies()) {
    for (int n = 2; n <= 10; ++n) {
      for (uint64_t seed = 0; seed < 10; ++seed) {
        GeneratorOptions gen;
        gen.topology = t;
        gen.num_relations = n;
        Query query = GenerateRandomQuery(gen, seed);
        OptimizerOptions options;
        OptimizeResult exact = Optimize(query, options);
        OptimizeResult adaptive = PlannerSession(options).Optimize(query);
        ASSERT_NE(exact.plan, nullptr);
        ASSERT_NE(adaptive.plan, nullptr);
        EXPECT_EQ(adaptive.plan->cost, exact.plan->cost);
        double optimum = exact.plan->cost;
        if (optimum <= 0) continue;

        OptimizerOptions forced = options;
        forced.adaptive_exact_relations = 0;
        OptimizeResult facade = PlannerSession(forced).Optimize(query);
        ASSERT_NE(facade.plan, nullptr);
        worst_facade = std::max(worst_facade, facade.plan->cost / optimum);

        options.algorithm = Algorithm::kGoo;
        OptimizeResult goo = Optimize(query, options);
        ASSERT_NE(goo.plan, nullptr);
        worst_goo = std::max(worst_goo, goo.plan->cost / optimum);
        options.algorithm = Algorithm::kIdp;
        OptimizeResult idp = Optimize(query, options);
        if (idp.plan != nullptr) {
          worst_idp = std::max(worst_idp, idp.plan->cost / optimum);
        }
      }
    }
  }
  std::printf("[deep sweep] worst facade/optimum = %.3f, worst kGoo/optimum "
              "= %.3f, worst kIdp/optimum = %.3f\n",
              worst_facade, worst_goo, worst_idp);
  EXPECT_LE(worst_facade, 6.0);
  EXPECT_LE(worst_goo, 6.0);
  EXPECT_LE(worst_idp, 100.0);
}

TEST(LargeQuerySlowScale, RepeatedHundredRelationRunsStayValid) {
  // Several seeds per topology at n in {30, 60, 100}: strategies keep
  // producing validator-clean plans as the stitching depth grows.
  for (QueryTopology t : StructuredTopologies()) {
    for (int n : {30, 60, 100}) {
      for (uint64_t seed = 0; seed < 3; ++seed) {
        GeneratorOptions gen;
        gen.topology = t;
        gen.num_relations = n;
        Query query = GenerateRandomQuery(gen, seed);
        OptimizeResult adaptive = PlannerSession().Optimize(query);
        ASSERT_NE(adaptive.plan, nullptr) << TopologyName(t) << " n=" << n;
        EXPECT_TRUE(ValidatePlan(adaptive.plan, query).empty())
            << TopologyName(t) << " n=" << n << " seed=" << seed;
        EXPECT_TRUE(std::isfinite(adaptive.plan->cost));
      }
    }
  }
}

}  // namespace
}  // namespace eadp
