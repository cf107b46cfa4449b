#include "cardinality/estimator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cost/cost_model.h"
#include "plangen/plangen.h"
#include "plangen/session.h"

namespace eadp {
namespace {

Catalog MakeCatalog() {
  Catalog c;
  int r0 = c.AddRelation("R0", 1000);
  c.AddAttribute(r0, "R0.j", 100);
  c.AddAttribute(r0, "R0.g", 10);
  int r1 = c.AddRelation("R1", 50);
  c.AddAttribute(r1, "R1.j", 50);
  return c;
}

TEST(Estimator, BaseCardinality) {
  Catalog c = MakeCatalog();
  CardinalityEstimator e(&c);
  EXPECT_DOUBLE_EQ(e.BaseCardinality(0), 1000);
  EXPECT_DOUBLE_EQ(e.BaseCardinality(1), 50);
}

TEST(Estimator, DistinctCappedByCardinality) {
  Catalog c = MakeCatalog();
  CardinalityEstimator e(&c);
  EXPECT_DOUBLE_EQ(e.DistinctInCard(0, 1000), 100);
  EXPECT_DOUBLE_EQ(e.DistinctInCard(0, 30), 30);  // capped
}

TEST(Estimator, GroupingCardinality) {
  Catalog c = MakeCatalog();
  CardinalityEstimator e(&c);
  AttrSet g;
  g.Add(1);  // d = 10
  EXPECT_DOUBLE_EQ(e.GroupingCardinality(g, 1000), 10);
  g.Add(0);  // d = 100 -> product 1000 capped at input card
  EXPECT_DOUBLE_EQ(e.GroupingCardinality(g, 500), 500);
  // Empty grouping: a single group (scalar aggregation).
  EXPECT_DOUBLE_EQ(e.GroupingCardinality(AttrSet(), 500), 1);
}

TEST(Estimator, InnerJoinCardinality) {
  Catalog c = MakeCatalog();
  CardinalityEstimator e(&c);
  EXPECT_DOUBLE_EQ(e.JoinCardinality(OpKind::kJoin, 1000, 50, 0.01), 500);
}

TEST(Estimator, OuterJoinsAtLeastPreservedSide) {
  Catalog c = MakeCatalog();
  CardinalityEstimator e(&c);
  // Low selectivity: left outer keeps all left rows.
  EXPECT_DOUBLE_EQ(e.JoinCardinality(OpKind::kLeftOuter, 1000, 50, 1e-6),
                   1000);
  // Full outer keeps both unmatched sides.
  double k = e.JoinCardinality(OpKind::kFullOuter, 1000, 50, 1e-6);
  EXPECT_GE(k, 1000 + 50 - 1);
}

TEST(Estimator, SemiAntiPartitionLeft) {
  Catalog c = MakeCatalog();
  CardinalityEstimator e(&c);
  double semi = e.JoinCardinality(OpKind::kLeftSemi, 1000, 50, 0.01);
  double anti = e.JoinCardinality(OpKind::kLeftAnti, 1000, 50, 0.01);
  EXPECT_DOUBLE_EQ(semi + anti, 1000);
  EXPECT_LE(semi, 1000);
  // Semi probability saturates at 1.
  EXPECT_DOUBLE_EQ(e.JoinCardinality(OpKind::kLeftSemi, 1000, 50, 1.0), 1000);
}

TEST(Estimator, GroupJoinKeepsLeftCardinality) {
  Catalog c = MakeCatalog();
  CardinalityEstimator e(&c);
  EXPECT_DOUBLE_EQ(e.JoinCardinality(OpKind::kGroupJoin, 1000, 50, 0.5),
                   1000);
}

TEST(CostModel, CoutDefinition) {
  CostModel m;
  EXPECT_DOUBLE_EQ(m.ScanCost(), 0);
  EXPECT_DOUBLE_EQ(m.BinaryOpCost(10, 3, 4), 17);
  EXPECT_DOUBLE_EQ(m.GroupingCost(5, 7), 12);
  EXPECT_DOUBLE_EQ(m.MapCost(7), 7);  // χ and Π are free
}

// --- Overflow regression: no non-finite value ever escapes the estimator.
// Before the kMaxCardinality clamp, the independence product along a deep
// chain reached inf in a few dozen joins (1e8 growth per step), and the
// generator only dodged it by bounding |R|*sel per step in the workload.

TEST(EstimatorOverflow, DeepChainSaturatesInsteadOfOverflowing) {
  Catalog c = MakeCatalog();
  CardinalityEstimator e(&c);
  // 60 joins each growing the result by 1e8: the unclamped product is
  // 1e8 * (1e8)^60 ~ 1e488 — far past inf (1.8e308).
  double card = 1e8;
  for (int step = 0; step < 60; ++step) {
    card = e.JoinCardinality(OpKind::kJoin, card, 1e8, 1.0);
    ASSERT_TRUE(std::isfinite(card)) << "step " << step;
  }
  EXPECT_DOUBLE_EQ(card, CardinalityEstimator::kMaxCardinality);
}

TEST(EstimatorOverflow, SaturatedInputsNeverProduceInfOrNaN) {
  Catalog c = MakeCatalog();
  CardinalityEstimator e(&c);
  double huge = CardinalityEstimator::kMaxCardinality;
  for (OpKind kind : {OpKind::kJoin, OpKind::kLeftSemi, OpKind::kLeftAnti,
                      OpKind::kLeftOuter, OpKind::kFullOuter,
                      OpKind::kGroupJoin}) {
    for (double sel : {1.0, 1e-3, 1e-200}) {
      double card = e.JoinCardinality(kind, huge, huge, sel);
      EXPECT_TRUE(std::isfinite(card)) << static_cast<int>(kind) << " " << sel;
      EXPECT_FALSE(std::isnan(card));
      EXPECT_LE(card, huge);
    }
  }
  // kFullOuter at saturation is the historically nastiest case: its
  // unmatched-side subtractions see `inner` products of already-huge
  // inputs. With clamped inputs inner stays finite and so does the sum.
  double full = e.JoinCardinality(OpKind::kFullOuter, huge, huge, 1e-5);
  EXPECT_TRUE(std::isfinite(full));
  // Inputs *above* the ceiling (e.g. a caller that chained products
  // without clamping) are clamped on entry rather than trusted.
  EXPECT_TRUE(std::isfinite(e.JoinCardinality(OpKind::kJoin, 1e300, 1e300,
                                              1.0)));
  EXPECT_TRUE(std::isfinite(e.GroupingCardinality(AttrSet::Single(0), 1e300)));
}

TEST(EstimatorOverflow, KeyImpliedBoundIsAlwaysFinite) {
  Catalog c;
  int r0 = c.AddRelation("R0", 1e12);
  // Two attributes with 1e80 distinct values each: the key product 1e160
  // exceeds the ceiling and must saturate, not overflow onward.
  int a0 = c.AddAttribute(r0, "R0.a", 1e80);
  int a1 = c.AddAttribute(r0, "R0.b", 1e80);
  CardinalityEstimator e(&c);
  std::vector<AttrSet> keys;
  // No keys: the bound must be the (finite) ceiling, leaving
  // min(estimate, bound) a no-op instead of comparing against inf.
  EXPECT_DOUBLE_EQ(e.KeyImpliedBound(keys),
                   CardinalityEstimator::kMaxCardinality);
  AttrSet both;
  both.Add(a0);
  both.Add(a1);
  keys.push_back(both);
  EXPECT_DOUBLE_EQ(e.KeyImpliedBound(keys),
                   CardinalityEstimator::kMaxCardinality);
}

/// A chain query whose unclamped estimates overflow: n relations of 1e30
/// rows, consecutive equalities with selectivity 1e-2, growth ~1e28 per
/// step — 12 relations reach ~1e338, past double's 1.8e308.
Query OverflowingChainQuery(int n) {
  Catalog catalog;
  std::vector<int> attrs;
  JoinPredicate dummy;
  std::unique_ptr<OpTreeNode> root;
  for (int i = 0; i < n; ++i) {
    std::string name = "R";
    name += std::to_string(i);
    int r = catalog.AddRelation(name, 1e30);
    attrs.push_back(catalog.AddAttribute(r, name + ".j", 100));
    if (i == 0) {
      root = OpTreeNode::Leaf(r);
    } else {
      JoinPredicate pred;
      pred.AddEquality(attrs[static_cast<size_t>(i) - 1],
                       attrs[static_cast<size_t>(i)]);
      root = OpTreeNode::Binary(OpKind::kJoin, std::move(root),
                                OpTreeNode::Leaf(r), pred, 1e-2);
    }
  }
  AggregateVector aggs;
  AggregateFunction cnt;
  cnt.output = "cnt";
  cnt.kind = AggKind::kCountStar;
  aggs.push_back(cnt);
  Query q = Query::FromTree(std::move(catalog), std::move(root),
                            AttrSet::Single(0), std::move(aggs));
  q.Canonicalize();
  return q;
}

TEST(EstimatorOverflow, OptimizerSurvivesPreviouslyOverflowingChain) {
  // Exact-DP path (n = 12 routes through the exhaustive enumeration) and
  // the large-query path (n = 40 routes through the kGoo/kIdp race): every
  // plan property and the final cost stay finite end to end.
  for (int n : {12, 40}) {
    Query q = OverflowingChainQuery(n);
    OptimizeResult r = PlannerSession().Optimize(q);
    ASSERT_NE(r.plan, nullptr) << "n=" << n;
    EXPECT_TRUE(std::isfinite(r.plan->cost)) << "n=" << n;
    EXPECT_TRUE(std::isfinite(r.plan->cardinality)) << "n=" << n;
    EXPECT_TRUE(std::isfinite(r.plan->raw_cardinality)) << "n=" << n;
    EXPECT_TRUE(std::isfinite(r.plan->pregroup_cardinality)) << "n=" << n;
    EXPECT_GT(r.plan->cost, 0) << "n=" << n;
  }
}

}  // namespace
}  // namespace eadp
