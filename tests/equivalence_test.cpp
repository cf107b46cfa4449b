// Property tests for the eager-aggregation equivalences (Fig. 3).
//
// For every binary operator ◦ and every aggregate mix, the four OpTrees
// variants — T1 ◦ T2, Γ(T1) ◦ T2, T1 ◦ Γ(T2), Γ(T1) ◦ Γ(T2), each with the
// top-level finalization — are built with the library's own rewriting
// machinery, materialized (op_trees.h), and executed against randomized data (with NULLs, duplicates
// and empty inputs). Each variant must produce the canonical result. This
// covers Eqvs. 10–36 (inner join, left outerjoin with defaults, full
// outerjoin with defaults), 37/38 (semijoin, antijoin) and 39–41
// (groupjoin), including the count(*) special case S1, the ⊗ adjustment,
// and the F({⊥}) default vectors.

#include <gtest/gtest.h>

#include <tuple>

#include "tests/test_util.h"

namespace eadp {
namespace {

using EqvParam = std::tuple<OpKind, AggMix, int /*seed*/>;

class EquivalenceTest : public ::testing::TestWithParam<EqvParam> {};

TEST_P(EquivalenceTest, AllOpTreesVariantsMatchCanonical) {
  auto [kind, mix, seed] = GetParam();
  TwoRelSpec spec;
  spec.kind = kind;
  spec.mix = mix;
  // Vary key declarations with the seed to also exercise the Eqv. 42 path.
  spec.key_on_r0 = (seed % 2) == 0;
  spec.key_on_r1 = (seed % 3) == 0;
  Query query = MakeTwoRelQuery(spec);

  ConflictDetector conflicts(query);
  PlanBuilder builder(&query, &conflicts);
  PlanPtr t0 = builder.MakeScan(0);
  PlanPtr t1 = builder.MakeScan(1);
  CrossingOps crossing =
      builder.FindCrossingOps(RelSet::Single(0), RelSet::Single(1));
  ASSERT_TRUE(crossing.valid);
  std::vector<PlanPtr> trees;
  if (crossing.swap) {
    builder.OpTrees(t1, t0, crossing, &trees);
  } else {
    builder.OpTrees(t0, t1, crossing, &trees);
  }
  ASSERT_FALSE(trees.empty());

  DataOptions data_options;
  data_options.max_rows = 9;
  Database db = GenerateDatabase(query, static_cast<uint64_t>(seed) * 7 + 1,
                                 data_options);

  for (const PlanPtr& tree : trees) {
    std::string message;
    EXPECT_TRUE(PlanMatchesCanonical(builder.Materialize(tree), query, db,
                                     &message))
        << message;
  }
}

TEST_P(EquivalenceTest, EagerVariantsAreActuallyGenerated) {
  // Meta-test: for decomposable mixes on an inner join without key
  // declarations, at least the two one-sided pushdowns must appear —
  // otherwise the suite above would be vacuous.
  auto [kind, mix, seed] = GetParam();
  if (kind != OpKind::kJoin || mix == AggMix::kDistinctRight) {
    GTEST_SKIP();
  }
  (void)seed;
  TwoRelSpec spec;
  spec.kind = kind;
  spec.mix = mix;
  Query query = MakeTwoRelQuery(spec);
  ConflictDetector conflicts(query);
  PlanBuilder builder(&query, &conflicts);
  PlanPtr t0 = builder.MakeScan(0);
  PlanPtr t1 = builder.MakeScan(1);
  CrossingOps crossing =
      builder.FindCrossingOps(RelSet::Single(0), RelSet::Single(1));
  ASSERT_TRUE(crossing.valid);
  std::vector<PlanPtr> trees;
  builder.OpTrees(t0, t1, crossing, &trees);
  EXPECT_EQ(trees.size(), 4u);
}

std::string EqvParamName(const ::testing::TestParamInfo<EqvParam>& info) {
  std::string name = OpKindName(std::get<0>(info.param));
  name += "_mix";
  name += std::to_string(static_cast<int>(std::get<1>(info.param)));
  name += "_seed";
  name += std::to_string(std::get<2>(info.param));
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllOperators, EquivalenceTest,
    ::testing::Combine(
        ::testing::Values(OpKind::kJoin, OpKind::kLeftOuter,
                          OpKind::kFullOuter, OpKind::kLeftSemi,
                          OpKind::kLeftAnti, OpKind::kGroupJoin),
        ::testing::Values(AggMix::kCountOnly, AggMix::kSumBoth,
                          AggMix::kMinMax, AggMix::kCountAttr,
                          AggMix::kDistinctRight, AggMix::kAvgLeft),
        ::testing::Range(0, 8)),
    EqvParamName);

TEST(EquivalenceEdgeCases, EmptyLeftInput) {
  TwoRelSpec spec;
  spec.kind = OpKind::kFullOuter;
  spec.mix = AggMix::kSumBoth;
  Query query = MakeTwoRelQuery(spec);
  ConflictDetector conflicts(query);
  PlanBuilder builder(&query, &conflicts);
  PlanPtr t0 = builder.MakeScan(0);
  PlanPtr t1 = builder.MakeScan(1);
  CrossingOps crossing =
      builder.FindCrossingOps(RelSet::Single(0), RelSet::Single(1));
  ASSERT_TRUE(crossing.valid);
  std::vector<PlanPtr> trees;
  builder.OpTrees(t0, t1, crossing, &trees);

  DataOptions options;
  options.min_rows = 0;
  options.max_rows = 0;  // R0 empty is possible; force with several seeds
  Database db = GenerateDatabase(query, 3, options);
  // Make only the right side non-empty.
  options.min_rows = 4;
  options.max_rows = 6;
  Database db2 = GenerateDatabase(query, 4, options);
  db.tables[1] = db2.tables[1];

  for (const PlanPtr& tree : trees) {
    std::string message;
    EXPECT_TRUE(PlanMatchesCanonical(builder.Materialize(tree), query, db,
                                     &message))
        << message;
  }
}

TEST(EquivalenceEdgeCases, GroupingOnBothSidesOfOuterJoinWithAllNullJoinKeys) {
  TwoRelSpec spec;
  spec.kind = OpKind::kLeftOuter;
  spec.mix = AggMix::kSumBoth;
  Query query = MakeTwoRelQuery(spec);
  ConflictDetector conflicts(query);
  PlanBuilder builder(&query, &conflicts);
  PlanPtr t0 = builder.MakeScan(0);
  PlanPtr t1 = builder.MakeScan(1);
  CrossingOps crossing =
      builder.FindCrossingOps(RelSet::Single(0), RelSet::Single(1));
  std::vector<PlanPtr> trees;
  builder.OpTrees(t0, t1, crossing, &trees);

  DataOptions options;
  options.min_rows = 3;
  options.max_rows = 6;
  options.null_probability = 1.0;  // every non-key column NULL
  Database db = GenerateDatabase(query, 11, options);
  for (const PlanPtr& tree : trees) {
    std::string message;
    EXPECT_TRUE(PlanMatchesCanonical(builder.Materialize(tree), query, db,
                                     &message))
        << message;
  }
}

}  // namespace
}  // namespace eadp
