// Key inference per operator (paper Sec. 2.3) and NeedsGrouping (Fig. 7).

#include "plangen/keys.h"

#include <gtest/gtest.h>

#include "plangen/plan.h"

namespace eadp {
namespace {

AttrSet Set(std::initializer_list<int> xs) {
  AttrSet s;
  for (int x : xs) s.Add(x);
  return s;
}

struct Fixture {
  Catalog catalog;
  PlanNode left;
  PlanNode right;
  KeySet left_keys;
  KeySet right_keys;

  // R0: attrs {0 = key-ish, 1}; R1: attrs {2 = key-ish, 3}.
  Fixture() {
    int r0 = catalog.AddRelation("R0", 100);
    catalog.AddAttribute(r0, "R0.k", 100);
    catalog.AddAttribute(r0, "R0.x", 10);
    int r1 = catalog.AddRelation("R1", 200);
    catalog.AddAttribute(r1, "R1.k", 200);
    catalog.AddAttribute(r1, "R1.x", 10);
    left.op = PlanOp::kScan;
    left.rels = RelSet::Single(0);
    left.keys_ = &left_keys;
    right.op = PlanOp::kScan;
    right.rels = RelSet::Single(1);
    right.keys_ = &right_keys;
  }

  JoinPredicate PredKK() {
    JoinPredicate p;
    p.AddEquality(0, 2);
    return p;
  }
  JoinPredicate PredXX() {
    JoinPredicate p;
    p.AddEquality(1, 3);
    return p;
  }
};

TEST(Keys, InnerJoinBothSidesKeyed) {
  Fixture f;
  f.left_keys = {Set({0})};
  f.left.duplicate_free = true;
  f.right_keys = {Set({2})};
  f.right.duplicate_free = true;
  KeyProperties k = ComputeJoinKeys(PlanOp::kJoin, f.catalog, f.left, f.right,
                                    f.PredKK());
  // Both join attrs are keys: κ = κ(e1) ∪ κ(e2).
  EXPECT_TRUE(k.duplicate_free);
  EXPECT_TRUE(HasKeySubset(k.keys, Set({0})));
  EXPECT_TRUE(HasKeySubset(k.keys, Set({2})));
}

TEST(Keys, InnerJoinLeftKeyOnly) {
  Fixture f;
  f.left_keys = {Set({0})};
  f.left.duplicate_free = true;
  f.right_keys = {Set({2})};
  f.right.duplicate_free = true;
  // Join on R0.k = R1.x: only the left side's join attr is a key, so each
  // right row matches at most one left row -> right keys survive.
  JoinPredicate p;
  p.AddEquality(0, 3);
  KeyProperties k =
      ComputeJoinKeys(PlanOp::kJoin, f.catalog, f.left, f.right, p);
  EXPECT_TRUE(HasKeySubset(k.keys, Set({2})));
  EXPECT_FALSE(HasKeySubset(k.keys, Set({0})));
}

TEST(Keys, UnchangedChildKeysPassThroughByPointer) {
  // When κ is one child's key set unchanged, the result names that child's
  // interned set, so MakeJoin reuses the pointer instead of re-interning.
  Fixture f;
  f.left_keys = {Set({0})};
  f.left.duplicate_free = true;
  f.right_keys = {Set({2})};
  f.right.duplicate_free = true;
  JoinPredicate key_x;  // R0.k = R1.x: left key only -> right keys survive
  key_x.AddEquality(0, 3);
  JoinPredicate x_key;  // R0.x = R1.k: right key only -> left keys survive
  x_key.AddEquality(1, 2);
  EXPECT_EQ(ComputeJoinKeys(PlanOp::kJoin, f.catalog, f.left, f.right, key_x)
                .passthrough,
            &f.right_keys);
  EXPECT_EQ(ComputeJoinKeys(PlanOp::kJoin, f.catalog, f.left, f.right, x_key)
                .passthrough,
            &f.left_keys);
  EXPECT_EQ(ComputeJoinKeys(PlanOp::kLeftOuter, f.catalog, f.left, f.right,
                            x_key)
                .passthrough,
            &f.left_keys);
  for (PlanOp op : {PlanOp::kLeftSemi, PlanOp::kLeftAnti,
                    PlanOp::kGroupJoin}) {
    KeyProperties k =
        ComputeJoinKeys(op, f.catalog, f.left, f.right, f.PredXX());
    EXPECT_EQ(k.passthrough, &f.left_keys);
    EXPECT_TRUE(k.keys == f.left_keys);
  }
  // Computed sets carry no pointer: both keyed (merged), neither keyed
  // (pairwise unions), full outer join.
  EXPECT_EQ(ComputeJoinKeys(PlanOp::kJoin, f.catalog, f.left, f.right,
                            f.PredKK())
                .passthrough,
            nullptr);
  EXPECT_EQ(ComputeJoinKeys(PlanOp::kJoin, f.catalog, f.left, f.right,
                            f.PredXX())
                .passthrough,
            nullptr);
  EXPECT_EQ(ComputeJoinKeys(PlanOp::kFullOuter, f.catalog, f.left, f.right,
                            f.PredKK())
                .passthrough,
            nullptr);
}

TEST(Keys, InnerJoinNoKeysCombines) {
  Fixture f;
  f.left_keys = {Set({0})};
  f.left.duplicate_free = true;
  f.right_keys = {Set({2})};
  f.right.duplicate_free = true;
  // Join on non-key attrs both sides: pairwise unions.
  KeyProperties k = ComputeJoinKeys(PlanOp::kJoin, f.catalog, f.left, f.right,
                                    f.PredXX());
  EXPECT_FALSE(HasKeySubset(k.keys, Set({0})));
  EXPECT_TRUE(HasKeySubset(k.keys, Set({0, 2})));
}

TEST(Keys, LeftOuterJoinRightKeyPreservesLeftKeys) {
  Fixture f;
  f.left_keys = {Set({0})};
  f.left.duplicate_free = true;
  f.right_keys = {Set({2})};
  f.right.duplicate_free = true;
  KeyProperties k = ComputeJoinKeys(PlanOp::kLeftOuter, f.catalog, f.left,
                                    f.right, f.PredKK());
  EXPECT_TRUE(HasKeySubset(k.keys, Set({0})));
  // Right keys do NOT survive a left outerjoin (padded NULL rows collide).
  EXPECT_FALSE(HasKeySubset(k.keys, Set({2})));
}

TEST(Keys, FullOuterAlwaysCombines) {
  Fixture f;
  f.left_keys = {Set({0})};
  f.left.duplicate_free = true;
  f.right_keys = {Set({2})};
  f.right.duplicate_free = true;
  KeyProperties k = ComputeJoinKeys(PlanOp::kFullOuter, f.catalog, f.left,
                                    f.right, f.PredKK());
  EXPECT_FALSE(HasKeySubset(k.keys, Set({0})));
  EXPECT_FALSE(HasKeySubset(k.keys, Set({2})));
  EXPECT_TRUE(HasKeySubset(k.keys, Set({0, 2})));
}

TEST(Keys, SemiAntiGroupjoinKeepLeftKeys) {
  Fixture f;
  f.left_keys = {Set({0})};
  f.left.duplicate_free = true;
  for (PlanOp op :
       {PlanOp::kLeftSemi, PlanOp::kLeftAnti, PlanOp::kGroupJoin}) {
    KeyProperties k =
        ComputeJoinKeys(op, f.catalog, f.left, f.right, f.PredKK());
    EXPECT_EQ(k.keys.size(), 1u);
    EXPECT_EQ(k.keys[0], Set({0}));
    EXPECT_TRUE(k.duplicate_free);
  }
}

TEST(Keys, DuplicateBagsStayDuplicate) {
  Fixture f;  // no keys, not duplicate free
  KeyProperties k = ComputeJoinKeys(PlanOp::kJoin, f.catalog, f.left, f.right,
                                    f.PredKK());
  EXPECT_FALSE(k.duplicate_free);
  EXPECT_TRUE(k.keys.empty());
}

TEST(Keys, GroupingMakesGroupByAKey) {
  PlanNode child;
  child.rels = RelSet::Single(0);
  KeyProperties k = ComputeGroupingKeys(child, Set({1, 2}));
  EXPECT_TRUE(k.duplicate_free);
  EXPECT_TRUE(HasKeySubset(k.keys, Set({1, 2})));
}

TEST(Keys, GroupingKeepsContainedChildKeys) {
  PlanNode child;
  KeySet child_keys = {Set({1})};
  child.keys_ = &child_keys;
  child.duplicate_free = true;
  KeyProperties k = ComputeGroupingKeys(child, Set({1, 2}));
  // The child key {1} ⊆ G+ survives and subsumes {1,2}.
  EXPECT_TRUE(HasKeySubset(k.keys, Set({1})));
  EXPECT_EQ(k.keys.size(), 1u);
}

TEST(Keys, NeedsGroupingFig7) {
  PlanNode t;
  KeySet t_keys = {Set({0})};
  t.keys_ = &t_keys;
  t.duplicate_free = true;
  EXPECT_FALSE(NeedsGrouping(Set({0, 1}), t));  // key within G: no grouping
  EXPECT_TRUE(NeedsGrouping(Set({1}), t));      // no key within G

  t.duplicate_free = false;
  EXPECT_TRUE(NeedsGrouping(Set({0, 1}), t));  // duplicates: must group
}

}  // namespace
}  // namespace eadp
