// Crossing-operator oracle: PlanBuilder::FindCrossingOps takes its
// candidate operators from per-relation incidence masks. The reference
// below is the operator scan it replaced — every operator's SES tested against both
// sides of the cut — kept here only as the oracle. Both must agree on
// every cut the planners probe: every csg-cmp-pair DPhyp emits, and every
// unit pair a greedy merge loop (kGoo's shape of probing) tries.
//
// Compared per cut: validity, orientation, primary kind, the operator list
// (primary first), the conjoined predicate and the selectivity bits; and
// per builder, that equal operator sets share one interned payload and
// distinct sets never do.
//
// Corpus: PresetCorpus (generator presets n <= 10, TPC-H, the mutation
// corpus, a degenerate predicate), per-edge cycles and cliques (cuts
// crossing several operators), a cut crossing an outer join and an inner
// operator at once, and structured queries with relation ids past 64,
// where the masks' high words carry the operators.
//
// Also here: CcpCombiner's source-first rejection — a pair with an empty
// source class returns false before any crossing payload is interned.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "conflict/conflict_detector.h"
#include "hypergraph/dphyp_enumerator.h"
#include "plangen/dp_combine.h"
#include "plangen/dp_table.h"
#include "plangen/op_trees.h"
#include "tests/preset_corpus.h"

namespace eadp {
namespace {

/// What the pre-incidence-mask FindCrossingOps computed for one cut.
struct RefCrossing {
  bool valid = false;
  bool swap = false;
  OpKind primary_kind = OpKind::kJoin;
  std::vector<int> ops;  ///< primary first
};

RefCrossing RefFindCrossingOps(const Query& q, const ConflictDetector& cd,
                               RelSet s1, RelSet s2) {
  RefCrossing out;
  RelSet s = s1.Union(s2);
  const std::vector<QueryOp>& ops = q.ops();
  int primary = -1;
  std::vector<int> crossing;
  for (size_t i = 0; i < ops.size(); ++i) {
    RelSet ses = cd.conflicts(static_cast<int>(i)).ses;
    if (!ses.Intersects(s1) || !ses.Intersects(s2)) continue;
    if (!ses.IsSubsetOf(s)) continue;
    if (ops[i].kind != OpKind::kJoin) {
      if (primary >= 0) return out;
      primary = static_cast<int>(i);
    }
    crossing.push_back(static_cast<int>(i));
  }
  if (crossing.empty()) return out;
  if (primary >= 0) {
    for (size_t k = 0; k < crossing.size(); ++k) {
      if (crossing[k] == primary) {
        std::swap(crossing[0], crossing[k]);
        break;
      }
    }
    if (crossing.size() > 1) return out;
  }
  out.primary_kind = ops[static_cast<size_t>(crossing[0])].kind;
  auto applicable_all = [&](RelSet a, RelSet b) {
    for (int i : crossing) {
      bool ok = cd.Applicable(i, a, b);
      if (!ok && IsCommutative(ops[static_cast<size_t>(i)].kind)) {
        ok = cd.Applicable(i, b, a);
      }
      if (!ok) return false;
    }
    return true;
  };
  if (applicable_all(s1, s2)) {
    out.swap = false;
  } else if (applicable_all(s2, s1)) {
    out.swap = true;
  } else {
    return out;
  }
  out.ops = std::move(crossing);
  out.valid = true;
  return out;
}

/// Probes cuts through one builder and checks each against the reference.
class CrossingChecker {
 public:
  explicit CrossingChecker(const Query& q)
      : q_(q), cd_(q), builder_(&q_, &cd_) {}

  void Check(RelSet s1, RelSet s2) {
    ++cuts_;
    RefCrossing ref = RefFindCrossingOps(q_, cd_, s1, s2);
    CrossingOps got = builder_.FindCrossingOps(s1, s2);
    std::string where = s1.ToString() + " | " + s2.ToString();
    ASSERT_EQ(got.valid, ref.valid) << where;
    if (!ref.valid) return;
    ++valid_;
    EXPECT_EQ(got.swap, ref.swap) << where;
    EXPECT_EQ(got.primary_kind, ref.primary_kind) << where;
    ASSERT_NE(got.info, nullptr) << where;
    ASSERT_EQ(got.info->op_indices, ref.ops) << where;
    if (ref.ops.size() > 1) ++multi_;

    JoinPredicate predicate;
    double selectivity = 1;
    for (int i : ref.ops) {
      const QueryOp& op = q_.ops()[static_cast<size_t>(i)];
      selectivity *= op.selectivity;
      for (const AttrEquality& eq : op.predicate.equalities()) {
        predicate.AddEquality(eq.left_attr, eq.right_attr);
      }
    }
    const std::vector<AttrEquality>& eqs = got.info->predicate.equalities();
    ASSERT_EQ(eqs.size(), predicate.equalities().size()) << where;
    for (size_t k = 0; k < eqs.size(); ++k) {
      EXPECT_EQ(eqs[k].left_attr, predicate.equalities()[k].left_attr);
      EXPECT_EQ(eqs[k].right_attr, predicate.equalities()[k].right_attr);
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(got.info->selectivity),
              std::bit_cast<uint64_t>(selectivity))
        << where;

    // Interning: one payload per operator set, never shared across sets.
    auto [it, inserted] = interned_.try_emplace(ref.ops, got.info);
    if (inserted) {
      EXPECT_TRUE(payloads_.insert(got.info).second)
          << where << ": payload shared by two operator sets";
    } else {
      EXPECT_EQ(it->second, got.info) << where << ": set interned twice";
    }
  }

  /// Every csg-cmp-pair of the query's hypergraph, in both orientations.
  void CheckAllCcps() {
    EnumerateCsgCmpPairs(cd_.hypergraph(), [&](RelSet s1, RelSet s2) {
      Check(s1, s2);
      Check(s2, s1);
    });
  }

  /// A greedy merge loop over single-relation units: every round probes
  /// every live pair (smaller relation-set word first, as kGoo orients
  /// them) and merges one valid pair, chosen by rotating through the valid
  /// ones so the units grow in varied shapes. Stops when no pair is valid.
  void CheckGreedyUnitPairs() {
    std::vector<RelSet> units;
    for (int r : BitsOf(q_.AllRelations())) units.push_back(RelSet::Single(r));
    for (size_t round = 0; units.size() > 1; ++round) {
      std::vector<std::pair<size_t, size_t>> valid;
      for (size_t i = 0; i < units.size(); ++i) {
        for (size_t j = i + 1; j < units.size(); ++j) {
          RelSet a = units[i], b = units[j];
          if (b < a) std::swap(a, b);
          size_t before = valid_;
          Check(a, b);
          if (::testing::Test::HasFatalFailure()) return;
          if (valid_ > before) valid.emplace_back(i, j);
        }
      }
      if (valid.empty()) return;
      auto [i, j] = valid[(round * 7) % valid.size()];
      units[i] = units[i].Union(units[j]);
      units.erase(units.begin() + static_cast<std::ptrdiff_t>(j));
    }
  }

  size_t cuts() const { return cuts_; }
  size_t valid() const { return valid_; }
  size_t multi() const { return multi_; }

 private:
  const Query& q_;
  ConflictDetector cd_;
  PlanBuilder builder_;
  size_t cuts_ = 0;
  size_t valid_ = 0;
  size_t multi_ = 0;
  std::map<std::vector<int>, const CrossingInfo*> interned_;
  std::set<const CrossingInfo*> payloads_;
};

/// (R0 ⋈_{R0.a = R1.a} R1) ⟕_{R1.b = R2.b} R2, where the outer join also
/// carries R0.c = R2.c as an extra predicate: FromTree splits it into an
/// inner operator over the same sides, so the cut {R0, R1} | {R2} is
/// crossed by a non-inner and an inner operator at once, which
/// FindCrossingOps rejects.
Query MixedCutQuery() {
  Catalog catalog;
  int r0 = catalog.AddRelation("R0", 100);
  int a0 = catalog.AddAttribute(r0, "R0.a", 10);
  int c0 = catalog.AddAttribute(r0, "R0.c", 10);
  int r1 = catalog.AddRelation("R1", 200);
  int a1 = catalog.AddAttribute(r1, "R1.a", 10);
  int b1 = catalog.AddAttribute(r1, "R1.b", 10);
  int r2 = catalog.AddRelation("R2", 300);
  int b2 = catalog.AddAttribute(r2, "R2.b", 10);
  int c2 = catalog.AddAttribute(r2, "R2.c", 10);
  JoinPredicate inner;
  inner.AddEquality(a0, a1);
  JoinPredicate outer;
  outer.AddEquality(b1, b2);
  ExtraPredicate extra;
  extra.predicate.AddEquality(c0, c2);
  extra.selectivity = 0.1;
  auto root = OpTreeNode::Binary(
      OpKind::kLeftOuter,
      OpTreeNode::Binary(OpKind::kJoin, OpTreeNode::Leaf(r0),
                         OpTreeNode::Leaf(r1), inner, 0.1),
      OpTreeNode::Leaf(r2), outer, 0.1);
  root->extra_predicates.push_back(extra);
  AggregateFunction cnt;
  cnt.output = "cnt";
  cnt.kind = AggKind::kCountStar;
  Query q = Query::FromTree(std::move(catalog), std::move(root),
                            AttrSet::Single(a0), {cnt});
  q.Canonicalize();
  return q;
}

/// PresetCorpus plus per-edge cycles and cliques (every extra edge is its
/// own operator, so a cut can cross several: the interner's
/// multi-operator path) and MixedCutQuery.
std::vector<Labeled> OracleCorpus() {
  std::vector<Labeled> corpus = PresetCorpus();
  corpus.push_back({"mixed cut", MixedCutQuery()});
  for (QueryTopology t : {QueryTopology::kCycle, QueryTopology::kClique}) {
    for (int n = 3; n <= 10; ++n) {
      GeneratorOptions gen;
      gen.topology = t;
      gen.num_relations = n;
      gen.per_edge_predicates = true;
      corpus.push_back({std::string("per-edge ") + TopologyName(t) +
                            " n=" + std::to_string(n),
                        GenerateRandomQuery(gen, 1)});
    }
  }
  return corpus;
}

TEST(CrossingOpsOracle, PresetCorpusCcpsAndGreedyPairsMatchTheScan) {
  size_t queries = 0, cuts = 0, valid = 0, multi = 0;
  for (const Labeled& c : OracleCorpus()) {
    if (c.query.NumRelations() > 10) continue;
    SCOPED_TRACE(c.label);
    CrossingChecker checker(c.query);
    checker.CheckAllCcps();
    if (HasFatalFailure()) return;
    checker.CheckGreedyUnitPairs();
    if (HasFatalFailure()) return;
    ++queries;
    cuts += checker.cuts();
    valid += checker.valid();
    multi += checker.multi();
  }
  // The oracle is live: the corpus is replayed, and cuts with several
  // crossing operators (per-edge cycles and cliques) occur next to
  // single ones.
  EXPECT_GT(queries, 400u);
  EXPECT_GT(valid, cuts / 10);
  EXPECT_GT(multi, 0u);
}

TEST(CrossingOpsOracle, MixedNonInnerAndInnerCutIsRejected) {
  Query q = MixedCutQuery();
  ASSERT_EQ(q.ops().size(), 3u);
  ConflictDetector cd(q);
  PlanBuilder builder(&q, &cd);
  RelSet r01 = RelSet::Single(0).Union(RelSet::Single(1));
  RelSet r2 = RelSet::Single(2);
  EXPECT_FALSE(RefFindCrossingOps(q, cd, r01, r2).valid);
  EXPECT_FALSE(builder.FindCrossingOps(r01, r2).valid);
  // The outer join alone crosses {R1} | {R2}.
  CrossingOps alone = builder.FindCrossingOps(RelSet::Single(1), r2);
  ASSERT_TRUE(alone.valid);
  EXPECT_EQ(alone.primary_kind, OpKind::kLeftOuter);
}

TEST(CrossingOpsOracle, RelationIdsPastSixtyFourMatchTheScan) {
  // Operators over relations 64..127 live in the masks' high words.
  struct Shape {
    QueryTopology topology;
    int n;
    bool all_ccps;  ///< chains and cycles stay at O(n^3) pairs
  };
  size_t high = 0;
  for (Shape shape : {Shape{QueryTopology::kChain, 80, true},
                      Shape{QueryTopology::kCycle, 70, true},
                      Shape{QueryTopology::kStar, 100, false},
                      Shape{QueryTopology::kSnowflake, 100, false}}) {
    GeneratorOptions gen;
    gen.topology = shape.topology;
    gen.num_relations = shape.n;
    gen.per_edge_predicates = true;
    Query q = GenerateRandomQuery(gen, 1);
    SCOPED_TRACE(std::string(TopologyName(shape.topology)) + " n=" +
                 std::to_string(shape.n));
    ASSERT_GT(q.AllRelations().Highest(), 64);
    ASSERT_GT(q.ops().size(), 64u);  // operator ids past 64 too
    CrossingChecker checker(q);
    if (shape.all_ccps) checker.CheckAllCcps();
    if (HasFatalFailure()) return;
    checker.CheckGreedyUnitPairs();
    if (HasFatalFailure()) return;
    high += checker.valid();
  }
  EXPECT_GT(high, 0u);
}

TEST(CcpCombiner, EmptySourceClassReturnsFalseAndInternsNothing) {
  GeneratorOptions gen;
  gen.topology = QueryTopology::kChain;
  gen.num_relations = 4;
  Query q = GenerateRandomQuery(gen, 1);
  ConflictDetector cd(q);
  // One connected pair of single relations.
  RelSet s1, s2;
  EnumerateCsgCmpPairs(cd.hypergraph(), [&](RelSet a, RelSet b) {
    if (s1.empty() && a.Count() == 1 && b.Count() == 1) {
      s1 = a;
      s2 = b;
    }
  });
  ASSERT_FALSE(s1.empty());

  for (Algorithm a : {Algorithm::kEaPrune, Algorithm::kEaAll,
                      Algorithm::kDphyp, Algorithm::kH1, Algorithm::kH2}) {
    SCOPED_TRACE(AlgorithmName(a));
    PlanBuilder builder(&q, &cd);
    DpTable dp;
    CcpCombiner combiner(&q, &builder, &dp, a, kNoCostBound, 1.03);
    dp.Append(s1, builder.MakeScan(s1.Lowest()));  // s2's class stays empty
    const size_t bytes = builder.arena()->bytes_used();
    const uint64_t built = builder.plans_built();
    const size_t classes = dp.NumClasses();

    EXPECT_FALSE(combiner.Combine(s1, s2));
    EXPECT_FALSE(combiner.Combine(s2, s1));
    EXPECT_EQ(builder.arena()->bytes_used(), bytes) << "a payload was interned";
    EXPECT_EQ(builder.plans_built(), built);
    EXPECT_EQ(dp.NumClasses(), classes) << "the target class was created";

    // The probe is sensitive: interning the pair's payload does move it.
    ASSERT_TRUE(builder.FindCrossingOps(s1, s2).valid);
    EXPECT_GT(builder.arena()->bytes_used(), bytes);

    // With both sources filled the same pair combines.
    dp.Append(s2, builder.MakeScan(s2.Lowest()));
    EXPECT_TRUE(combiner.Combine(s1, s2));
    EXPECT_TRUE(dp.Has(s1.Union(s2)));
  }
}

}  // namespace
}  // namespace eadp
