// Footprint oracle: Query stores every operator's footprint (raw SES and
// the attributes it keeps alive while pending) once, in FromTree, and
// answers OpSes, GroupByPlus and PendingGroupJoinRightIntersects from it.
// The references below are those three functions as they were written
// before the footprints existed — re-deriving everything from the catalog
// and the predicates on every call — and the stored versions must agree
// with them for every non-empty subset of relations of every query here.
//
// Corpus: the generator's presets (default, inner, outer, manyattr, and a
// groupjoin-heavy mix) over random trees and the structured topologies,
// the six TPC-H skeletons, the committed mutation corpus (path baked in as
// EADP_CORPUS_DIR), and one hand-built query with a degenerate predicate —
// the only shape where the conflict detector's padded SES differs from
// the raw one the grouping test must use.

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "conflict/conflict_detector.h"
#include "queries/mutation.h"
#include "queries/query_generator.h"
#include "queries/tpch.h"

#ifndef EADP_CORPUS_DIR
#error "EADP_CORPUS_DIR must point at the committed corpus directory"
#endif

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

// ---- Corpus. ----

struct Labeled {
  std::string label;
  Query query;
};

Query FromSeed(QueryTopology topology, int n, const char* preset,
               uint64_t seed) {
  FuzzSeed s;
  s.topology = topology;
  s.num_relations = n;
  s.preset = preset;
  s.seed = seed;
  return MaterializeSeed(s);
}

/// R0 ⋈_{R0.a = R1.a} R1, then ⋈ R2 with the predicate R0.b = R1.b, which
/// references only the left side. CD-C pads the SES with R2 so the
/// hyperedge has a right end; the raw SES is {R0, R1}.
Query DegenerateQuery() {
  Catalog catalog;
  int r0 = catalog.AddRelation("R0", 100);
  int a0 = catalog.AddAttribute(r0, "R0.a", 10);
  int b0 = catalog.AddAttribute(r0, "R0.b", 10);
  int r1 = catalog.AddRelation("R1", 200);
  int a1 = catalog.AddAttribute(r1, "R1.a", 10);
  int b1 = catalog.AddAttribute(r1, "R1.b", 10);
  int r2 = catalog.AddRelation("R2", 300);
  int g2 = catalog.AddAttribute(r2, "R2.g", 5);
  JoinPredicate inner;
  inner.AddEquality(a0, a1);
  JoinPredicate one_sided;
  one_sided.AddEquality(b0, b1);
  auto root = OpTreeNode::Binary(
      OpKind::kJoin,
      OpTreeNode::Binary(OpKind::kJoin, OpTreeNode::Leaf(r0),
                         OpTreeNode::Leaf(r1), inner, 0.1),
      OpTreeNode::Leaf(r2), one_sided, 0.1);
  AggregateFunction cnt;
  cnt.output = "cnt";
  cnt.kind = AggKind::kCountStar;
  Query q = Query::FromTree(std::move(catalog), std::move(root),
                            AttrSet::Single(g2), {cnt});
  q.Canonicalize();
  return q;
}

std::vector<Labeled> FootprintCorpus() {
  std::vector<Labeled> corpus;
  for (int n = 2; n <= 10; ++n) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      std::string suffix =
          " n=" + std::to_string(n) + " seed=" + std::to_string(seed);
      for (const char* preset : {"default", "inner", "outer"}) {
        corpus.push_back({std::string("random ") + preset + suffix,
                          FromSeed(QueryTopology::kRandomTree, n, preset,
                                   seed)});
      }
      GeneratorOptions groupjoins;
      groupjoins.num_relations = n;
      groupjoins.w_join = 0.2;
      groupjoins.w_groupjoin = 0.6;
      corpus.push_back({"random groupjoin" + suffix,
                        GenerateRandomQuery(groupjoins, seed)});
      for (QueryTopology t :
           {QueryTopology::kChain, QueryTopology::kStar, QueryTopology::kCycle,
            QueryTopology::kClique, QueryTopology::kSnowflake}) {
        for (const char* preset : {"default", "manyattr"}) {
          corpus.push_back({std::string(TopologyName(t)) + " " + preset +
                                suffix,
                            FromSeed(t, n, preset, seed)});
        }
      }
    }
  }
  const char* names[] = {"tpch ex", "tpch q1", "tpch q3",
                         "tpch q5", "tpch q10", "tpch q18"};
  Query (*makers[])() = {&MakeTpchEx, &MakeTpchQ1, &MakeTpchQ3,
                         &MakeTpchQ5, &MakeTpchQ10, &MakeTpchQ18};
  for (size_t i = 0; i < 6; ++i) corpus.push_back({names[i], makers[i]()});

  std::ifstream in(std::string(EADP_CORPUS_DIR) + "/mutation.corpus");
  EXPECT_TRUE(in.is_open());
  std::string line;
  while (std::getline(in, line)) {
    CorpusEntry entry;
    std::string error;
    if (!ParseCorpusEntry(line, &entry, &error)) continue;
    QuerySpec seed = QuerySpec::FromQuery(MaterializeSeed(entry.seed));
    QuerySpec mutant =
        MutationEngine::Replay(seed, entry.chain, entry.chain.size());
    corpus.push_back({"mutant " + line, mutant.ToQuery()});
  }
  corpus.push_back({"degenerate", DegenerateQuery()});
  return corpus;
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
  for (const Labeled& c : FootprintCorpus()) {
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
  for (const Labeled& c : FootprintCorpus()) {
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
