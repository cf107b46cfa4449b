// A shared query corpus for oracle tests that compare a stored or
// precomputed answer with a reference derivation over many query shapes.
// Needs EADP_CORPUS_DIR (the committed corpus directory, set per test
// target in tests/CMakeLists.txt).

#ifndef EADP_TESTS_PRESET_CORPUS_H_
#define EADP_TESTS_PRESET_CORPUS_H_

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "algebra/query.h"
#include "queries/mutation.h"
#include "queries/query_generator.h"
#include "queries/tpch.h"

#ifndef EADP_CORPUS_DIR
#error "EADP_CORPUS_DIR must point at the committed corpus directory"
#endif

namespace eadp {

/// A corpus query with a label for failure messages.
struct Labeled {
  std::string label;
  Query query;
};

inline Query FromSeed(QueryTopology topology, int n, const char* preset,
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
inline Query DegenerateQuery() {
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

/// The generator's presets (default, inner, outer, manyattr, and a
/// groupjoin-heavy mix) over random trees and the structured topologies at
/// n = 2..10, seeds 1..3; the six TPC-H skeletons; every entry of the
/// committed mutation corpus; and DegenerateQuery.
inline std::vector<Labeled> PresetCorpus() {
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

}  // namespace eadp

#endif  // EADP_TESTS_PRESET_CORPUS_H_
