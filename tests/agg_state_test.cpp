// Aggregation-state bookkeeping: partialization, ⊗ multipliers, defaults,
// and the candidate-side summary (PlanNode::raw_nondecomp) that stands in
// for CanGroup during enumeration.

#include "plangen/agg_state.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "hypergraph/dphyp_enumerator.h"
#include "plangen/dp_table.h"
#include "queries/query_generator.h"
#include "tests/test_util.h"

namespace eadp {
namespace {

/// R0(j,v) ⋈ R1(j,v), group by R0.j, F = cnt:count(*), s:sum(R0.v),
/// m:min(R1.v), d:count(distinct R1.v).
Query MakeQuery() {
  Catalog catalog;
  int r0 = catalog.AddRelation("R0", 100);
  int j0 = catalog.AddAttribute(r0, "R0.j", 10);
  int v0 = catalog.AddAttribute(r0, "R0.v", 50);
  int r1 = catalog.AddRelation("R1", 100);
  int j1 = catalog.AddAttribute(r1, "R1.j", 10);
  int v1 = catalog.AddAttribute(r1, "R1.v", 50);

  JoinPredicate p;
  p.AddEquality(j0, j1);
  auto root = OpTreeNode::Binary(OpKind::kJoin, OpTreeNode::Leaf(r0),
                                 OpTreeNode::Leaf(r1), p, 0.1);
  AttrSet g;
  g.Add(j0);

  AggregateVector aggs(4);
  aggs[0].output = "cnt";
  aggs[0].kind = AggKind::kCountStar;
  aggs[1].output = "s";
  aggs[1].kind = AggKind::kSum;
  aggs[1].arg = v0;
  aggs[2].output = "m";
  aggs[2].kind = AggKind::kMin;
  aggs[2].arg = v1;
  aggs[3].output = "d";
  aggs[3].kind = AggKind::kCount;
  aggs[3].arg = v1;
  aggs[3].distinct = true;
  return Query::FromTree(std::move(catalog), std::move(root), g, aggs);
}

TEST(AggState, LeafStateCoversOwnSlotsOnly) {
  Query q = MakeQuery();
  PlanAggState s0 = LeafAggState(q, 0);
  ASSERT_EQ(s0.slots.size(), 1u);  // sum(R0.v); count(*) is global
  EXPECT_EQ(s0.slots[0].query_index, 1);
  EXPECT_FALSE(s0.slots[0].partialized);

  PlanAggState s1 = LeafAggState(q, 1);
  ASSERT_EQ(s1.slots.size(), 2u);  // min(R1.v), count(distinct R1.v)
  EXPECT_TRUE(s0.counts.empty());
}

TEST(AggState, MergeConcatenatesAndReindexesHomes) {
  Query q = MakeQuery();
  PlanAggState a = LeafAggState(q, 0);
  a.counts.push_back({"$c0"});
  a.slots[0].partialized = true;
  a.slots[0].partial_column = "$p0";
  a.slots[0].home_count = 0;
  PlanAggState b = LeafAggState(q, 1);
  b.counts.push_back({"$c1"});
  b.slots[0].partialized = true;
  b.slots[0].partial_column = "$p1";
  b.slots[0].home_count = 0;

  PlanAggState merged = MergeAggStates(a, b);
  ASSERT_EQ(merged.counts.size(), 2u);
  ASSERT_EQ(merged.slots.size(), 3u);
  EXPECT_EQ(merged.slots[0].home_count, 0);
  EXPECT_EQ(merged.slots[1].home_count, 1);  // reindexed past a's counts
}

TEST(AggState, CanGroupRespectsDecomposability) {
  Query q = MakeQuery();
  PlanAggState s1 = LeafAggState(q, 1);  // min (ok) + count(distinct) (not)
  AttrSet g_without_arg;
  g_without_arg.Add(2);  // R1.j
  EXPECT_FALSE(CanGroup(q, s1, g_without_arg));
  // If the distinct argument is a grouping attribute, it survives raw.
  AttrSet g_with_arg = g_without_arg;
  g_with_arg.Add(3);  // R1.v
  EXPECT_TRUE(CanGroup(q, s1, g_with_arg));

  PlanAggState s0 = LeafAggState(q, 0);  // sum only: decomposable
  EXPECT_TRUE(CanGroup(q, s0, g_without_arg));
}

TEST(AggState, BuildGroupingSpecPartializes) {
  Query q = MakeQuery();
  PlanAggState s0 = LeafAggState(q, 0);
  AttrSet g;
  g.Add(0);  // R0.j
  NameGenerator names;
  std::vector<ExecAggregate> aggs;
  PlanAggState out = BuildGroupingSpec(q, s0, g, &names, &aggs);

  // One partial (sum) + one fresh count.
  ASSERT_EQ(aggs.size(), 2u);
  EXPECT_EQ(aggs[0].kind, AggKind::kSum);
  EXPECT_EQ(aggs[0].arg, "R0.v");
  EXPECT_TRUE(aggs[0].multipliers.empty());
  EXPECT_EQ(aggs[1].kind, AggKind::kCountStar);

  ASSERT_EQ(out.slots.size(), 1u);
  EXPECT_TRUE(out.slots[0].partialized);
  EXPECT_EQ(out.slots[0].home_count, 0);
  ASSERT_EQ(out.counts.size(), 1u);
}

TEST(AggState, RegroupingScalesByForeignCountsOnly) {
  Query q = MakeQuery();
  // State: slot sum(R0.v) partialized at $p0 homed at count 0 ($c0), plus a
  // foreign count $c1 (from the other side).
  PlanAggState state = LeafAggState(q, 0);
  state.slots[0].partialized = true;
  state.slots[0].partial_column = "$p0";
  state.slots[0].home_count = 0;
  state.counts.push_back({"$c0"});
  state.counts.push_back({"$c1"});

  AttrSet g;
  g.Add(0);
  NameGenerator names;
  std::vector<ExecAggregate> aggs;
  PlanAggState out = BuildGroupingSpec(q, state, g, &names, &aggs);

  ASSERT_EQ(aggs.size(), 2u);
  // Re-aggregate: sum($p0 * $c1): the home count $c0 must NOT multiply.
  EXPECT_EQ(aggs[0].kind, AggKind::kSum);
  EXPECT_EQ(aggs[0].arg, "$p0");
  ASSERT_EQ(aggs[0].multipliers.size(), 1u);
  EXPECT_EQ(aggs[0].multipliers[0], "$c1");
  // Fresh count: count(*) ⊗ $c0 ⊗ $c1.
  EXPECT_EQ(aggs[1].kind, AggKind::kCountStar);
  EXPECT_EQ(aggs[1].multipliers.size(), 2u);
  EXPECT_EQ(out.counts.size(), 1u);
}

TEST(AggState, FinalAggregatesScaleRawByAllCounts) {
  Query q = MakeQuery();
  PlanAggState state = MergeAggStates(LeafAggState(q, 0), LeafAggState(q, 1));
  state.counts.push_back({"$c0"});
  std::vector<ExecAggregate> finals = BuildFinalAggregates(q, state);
  ASSERT_EQ(finals.size(), 4u);
  // count(*): Σ Π counts.
  EXPECT_EQ(finals[0].kind, AggKind::kCountStar);
  ASSERT_EQ(finals[0].multipliers.size(), 1u);
  // raw sum: scaled.
  EXPECT_EQ(finals[1].kind, AggKind::kSum);
  EXPECT_EQ(finals[1].multipliers.size(), 1u);
  // min: duplicate agnostic, unscaled.
  EXPECT_EQ(finals[2].kind, AggKind::kMin);
  EXPECT_TRUE(finals[2].multipliers.empty());
  // count(distinct): duplicate agnostic, unscaled.
  EXPECT_TRUE(finals[3].distinct);
  EXPECT_TRUE(finals[3].multipliers.empty());
}

TEST(AggState, OuterJoinDefaultsPerPaper) {
  Query q = MakeQuery();
  PlanAggState state = LeafAggState(q, 1);
  // Partialize min(R1.v) -> NULL default; add a count -> default 1; and a
  // partialized count slot (use the non-distinct count by faking kind via
  // slot 1... use slot for min and a count column).
  state.slots[0].partialized = true;  // min slot
  state.slots[0].partial_column = "$p_min";
  state.slots[0].home_count = 0;
  state.counts.push_back({"$c0"});

  auto defaults = OuterJoinDefaults(q, state);
  // $c0 -> 1; min partial -> NULL (no entry); distinct slot raw (no entry).
  ASSERT_EQ(defaults.size(), 1u);
  EXPECT_EQ(defaults[0].column, "$c0");
  EXPECT_TRUE(defaults[0].one);
}

TEST(AggState, CountLikePartialGetsZeroDefault) {
  // A query with count(R1.v): its partial defaults to 0 under padding.
  Catalog catalog;
  int r0 = catalog.AddRelation("R0", 10);
  int j0 = catalog.AddAttribute(r0, "R0.j", 5);
  int r1 = catalog.AddRelation("R1", 10);
  int j1 = catalog.AddAttribute(r1, "R1.j", 5);
  int v1 = catalog.AddAttribute(r1, "R1.v", 5);
  JoinPredicate p;
  p.AddEquality(j0, j1);
  auto root = OpTreeNode::Binary(OpKind::kLeftOuter, OpTreeNode::Leaf(r0),
                                 OpTreeNode::Leaf(r1), p, 0.2);
  AttrSet g;
  g.Add(j0);
  AggregateVector aggs(1);
  aggs[0].output = "c";
  aggs[0].kind = AggKind::kCount;
  aggs[0].arg = v1;
  Query q = Query::FromTree(std::move(catalog), std::move(root), g, aggs);

  PlanAggState state = LeafAggState(q, 1);
  AttrSet gp;
  gp.Add(1);  // R1.j
  NameGenerator names;
  std::vector<ExecAggregate> spec;
  PlanAggState grouped = BuildGroupingSpec(q, state, gp, &names, &spec);
  auto defaults = OuterJoinDefaults(q, grouped);
  ASSERT_EQ(defaults.size(), 2u);
  // Partial count -> 0, count column -> 1 (order: counts first).
  EXPECT_TRUE(defaults[0].one);
  EXPECT_FALSE(defaults[1].one);
}

// ---------------------------------------------------------------------------
// Differential pin: the candidate summary `raw_nondecomp ⊆ G+` decides
// exactly what CanGroup decides on the materialized aggregation state, for
// every node of every OpTrees candidate.
// ---------------------------------------------------------------------------

class SummaryChecker {
 public:
  SummaryChecker(const Query& query, PlanBuilder* builder)
      : query_(query), builder_(builder) {}

  void Check(PlanPtr node) {
    if (node == nullptr || !seen_.insert(node).second) return;
    AttrSet g_plus = query_.GroupByPlus(node->rels);
    bool summary = node->raw_nondecomp.IsSubsetOf(g_plus);
    bool full =
        CanGroup(query_, builder_->Materialize(node)->agg_state(), g_plus);
    EXPECT_EQ(summary, full) << node->ToString(query_.catalog());
    ++checked_;
    if (!summary) ++rejected_;
    Check(node->left);
    Check(node->right);
  }

  size_t checked() const { return checked_; }
  size_t rejected() const { return rejected_; }

 private:
  const Query& query_;
  PlanBuilder* builder_;
  std::unordered_set<PlanPtr> seen_;
  size_t checked_ = 0;
  size_t rejected_ = 0;
};

TEST(CandidateSummary, MatchesCanGroupOnEquivalenceCorpus) {
  size_t checked = 0;
  size_t rejected = 0;
  for (OpKind kind : {OpKind::kJoin, OpKind::kLeftOuter, OpKind::kFullOuter,
                      OpKind::kLeftSemi, OpKind::kLeftAnti,
                      OpKind::kGroupJoin}) {
    for (AggMix mix : AllAggMixes()) {
      for (int keys = 0; keys < 4; ++keys) {
        TwoRelSpec spec;
        spec.kind = kind;
        spec.mix = mix;
        spec.key_on_r0 = (keys & 1) != 0;
        spec.key_on_r1 = (keys & 2) != 0;
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
        SummaryChecker checker(query, &builder);
        for (PlanPtr t : trees) checker.Check(t);
        checked += checker.checked();
        rejected += checker.rejected();
      }
    }
  }
  EXPECT_GT(checked, 0u);
  EXPECT_GT(rejected, 0u) << "no non-decomposable slot ever blocked a push";
}

TEST(CandidateSummary, MatchesCanGroupOnGeneratorCorpus) {
  // The EA-Prune enumeration, spelled out so every OpTrees output — kept
  // or pruned — passes through the checker.
  size_t checked = 0;
  size_t rejected = 0;
  for (QueryTopology topology :
       {QueryTopology::kRandomTree, QueryTopology::kChain,
        QueryTopology::kStar, QueryTopology::kCycle, QueryTopology::kClique}) {
    for (int n = 3; n <= 9; ++n) {
      for (uint64_t seed = 0; seed < 2; ++seed) {
        GeneratorOptions gen;
        gen.topology = topology;
        gen.num_relations = n;
        gen.distinct_agg_probability = seed == 0 ? 0.10 : 0.5;
        Query query = GenerateRandomQuery(gen, seed * 100 + static_cast<uint64_t>(n));
        ConflictDetector conflicts(query);
        PlanBuilder builder(&query, &conflicts);
        SummaryChecker checker(query, &builder);
        DpTable dp;
        for (int r : BitsOf(query.AllRelations())) {
          dp.Append(RelSet::Single(r), builder.MakeScan(r));
        }
        std::vector<PlanPtr> trees;
        EnumerateCsgCmpPairs(
            conflicts.hypergraph(), [&](RelSet s1, RelSet s2) {
              CrossingOps crossing = builder.FindCrossingOps(s1, s2);
              if (!crossing.valid) return;
              RelSet a = crossing.swap ? s2 : s1;
              RelSet b = crossing.swap ? s1 : s2;
              RelSet s = s1.Union(s2);
              bool top = s == query.AllRelations();
              for (PlanPtr t1 : dp.Plans(a)) {
                for (PlanPtr t2 : dp.Plans(b)) {
                  trees.clear();
                  builder.OpTrees(t1, t2, crossing, &trees);
                  for (PlanPtr t : trees) {
                    checker.Check(t);
                    if (top) {
                      dp.InsertIfCheaper(s, t);
                    } else {
                      dp.InsertPruned(s, t);
                    }
                  }
                }
              }
            });
        checked += checker.checked();
        rejected += checker.rejected();
      }
    }
  }
  EXPECT_GT(checked, 0u);
  EXPECT_GT(rejected, 0u) << "no non-decomposable slot ever blocked a push";
}

}  // namespace
}  // namespace eadp
