// Footprint oracle: Query stores every operator's footprint (raw SES and
// the attributes it keeps alive while pending) once, in FromTree, and
// answers OpSes, GroupByPlus and PendingGroupJoinRightIntersects from it.
// The references below are those three functions as they were written
// before the footprints existed — re-deriving everything from the catalog
// and the predicates on every call — and the stored versions must agree
// with them for every non-empty subset of relations of every query here.
//
// Corpus: PresetCorpus (tests/preset_corpus.h) — generator presets, the
// six TPC-H skeletons, the committed mutation corpus and a query with a
// degenerate predicate, the only shape where the conflict detector's
// padded SES differs from the raw one the grouping test must use.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "conflict/conflict_detector.h"
#include "tests/preset_corpus.h"

namespace eadp {
namespace {

// ---- References: the pre-footprint derivations, kept verbatim. ----

RelSet RefOpSes(const Query& q, const QueryOp& op) {
  const Catalog& catalog = q.catalog();
  RelSet ses = catalog.RelationsOf(op.predicate.ReferencedAttrs());
  for (const AggregateFunction& f : op.groupjoin_aggs) {
    if (f.arg >= 0) ses.Add(catalog.RelationOf(f.arg));
  }
  return ses;
}

AttrSet RefGroupByPlus(const Query& q, RelSet rels) {
  AttrSet own = q.catalog().AttributesOf(rels);
  AttrSet result = q.group_by().Intersect(own);
  for (const QueryOp& op : q.ops()) {
    RelSet ses = RefOpSes(q, op);
    if (ses.Intersects(rels) && !ses.IsSubsetOf(rels)) {
      result.UnionWith(op.predicate.ReferencedAttrs().Intersect(own));
      for (const AggregateFunction& f : op.groupjoin_aggs) {
        if (f.arg >= 0 && own.Contains(f.arg)) result.Add(f.arg);
      }
    }
  }
  return result;
}

bool RefPendingGroupJoinRightIntersects(const Query& q, RelSet rels) {
  for (const QueryOp& op : q.ops()) {
    if (op.kind != OpKind::kGroupJoin) continue;
    if (!RefOpSes(q, op).IsSubsetOf(rels) && op.right_rels.Intersects(rels)) {
      return true;
    }
  }
  return false;
}

/// Every non-empty subset of `all` (n <= 10 keeps this at 1023 sets).
std::vector<RelSet> Subsets(RelSet all) {
  std::vector<int> bits;
  for (int r : BitsOf(all)) bits.push_back(r);
  std::vector<RelSet> out;
  for (uint32_t m = 1; m < (1u << bits.size()); ++m) {
    RelSet s;
    for (size_t k = 0; k < bits.size(); ++k) {
      if (m & (1u << k)) s.Add(bits[k]);
    }
    out.push_back(s);
  }
  return out;
}

TEST(QueryFootprint, StoredFootprintsMatchTheReferences) {
  size_t queries = 0;
  size_t pending_groupjoin_hits = 0;
  size_t pending_attr_gains = 0;  // G+ strictly larger than G ∩ own
  for (const Labeled& c : PresetCorpus()) {
    const Query& q = c.query;
    if (q.NumRelations() > 10) continue;
    ++queries;
    SCOPED_TRACE(c.label);
    for (size_t i = 0; i < q.ops().size(); ++i) {
      ASSERT_EQ(q.OpSes(i), RefOpSes(q, q.ops()[i])) << "op " << i;
    }
    for (RelSet rels : Subsets(q.AllRelations())) {
      AttrSet g_plus = q.GroupByPlus(rels);
      ASSERT_EQ(g_plus, RefGroupByPlus(q, rels)) << rels.ToString();
      bool pending = q.PendingGroupJoinRightIntersects(rels);
      ASSERT_EQ(pending, RefPendingGroupJoinRightIntersects(q, rels))
          << rels.ToString();
      pending_groupjoin_hits += pending;
      AttrSet own = q.catalog().AttributesOf(rels);
      pending_attr_gains += g_plus != q.group_by().Intersect(own);
    }
  }
  // The oracle is live: the mutation corpus is replayed, pending groupjoins
  // and pending join attributes both occur.
  EXPECT_GT(queries, 400u);
  EXPECT_GT(pending_groupjoin_hits, 0u);
  EXPECT_GT(pending_attr_gains, 0u);
}

TEST(QueryFootprint, ConflictDetectorPadsOnlyDegenerateSides) {
  // CD-C's SES is the stored raw SES plus, per side the predicate does not
  // reference, that side's lowest relation.
  for (const Labeled& c : PresetCorpus()) {
    const Query& q = c.query;
    SCOPED_TRACE(c.label);
    ConflictDetector cd(q);
    for (size_t i = 0; i < q.ops().size(); ++i) {
      const QueryOp& op = q.ops()[i];
      RelSet expected = RefOpSes(q, op);
      if (!expected.Intersects(op.left_rels)) {
        expected.Add(op.left_rels.Lowest());
      }
      if (!expected.Intersects(op.right_rels)) {
        expected.Add(op.right_rels.Lowest());
      }
      EXPECT_EQ(cd.conflicts(static_cast<int>(i)).ses, expected) << "op " << i;
    }
  }
}

TEST(QueryFootprint, DegeneratePredicateKeepsTheRawSesInGroupByPlus) {
  // The top operator's raw SES is {R0, R1}: grouped on {R0, R1} it is
  // already applied, so its attributes are not in G+. The padded SES
  // {R0, R1, R2} would call it pending and keep R0.b and R1.b.
  Query q = DegenerateQuery();
  ConflictDetector cd(q);
  RelSet left = RelSet::Single(0).Union(RelSet::Single(1));
  ASSERT_EQ(q.OpSes(1), left);
  ASSERT_EQ(cd.conflicts(1).ses, left.Union(RelSet::Single(2)));
  AttrSet own = q.catalog().AttributesOf(left);
  EXPECT_EQ(q.GroupByPlus(left), q.group_by().Intersect(own));
  EXPECT_TRUE(q.GroupByPlus(left).empty());
}

}  // namespace
}  // namespace eadp
