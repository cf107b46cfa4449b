// DPhyp enumeration counts checked against closed forms and an independent
// brute-force enumeration of csg-cmp-pairs; the mask-based hypergraph
// primitives and the full emission sequence checked against the edge-scan
// primitives they replaced, on seeded random hypergraphs.

#include "hypergraph/dphyp_enumerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace eadp {
namespace {

Hypergraph Chain(int n) {
  Hypergraph g(n);
  for (int i = 0; i + 1 < n; ++i) {
    g.AddEdge(RelSet::Single(i), RelSet::Single(i + 1), i);
  }
  return g;
}

Hypergraph Star(int n) {
  Hypergraph g(n);
  for (int i = 1; i < n; ++i) {
    g.AddEdge(RelSet::Single(0), RelSet::Single(i), i - 1);
  }
  return g;
}

Hypergraph Clique(int n) {
  Hypergraph g(n);
  int e = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      g.AddEdge(RelSet::Single(i), RelSet::Single(j), e++);
    }
  }
  return g;
}

Hypergraph Cycle(int n) {
  Hypergraph g(n);
  for (int i = 0; i < n; ++i) {
    g.AddEdge(RelSet::Single(i), RelSet::Single((i + 1) % n), i);
  }
  return g;
}

/// Brute-force count of unordered csg-cmp-pairs per Def. 3.
uint64_t BruteForceCcp(const Hypergraph& g) {
  int n = g.num_nodes();
  uint64_t count = 0;
  for (uint64_t s1 = 1; s1 < (uint64_t{1} << n); ++s1) {
    if (!g.IsConnected(RelSet(s1))) continue;
    for (uint64_t s2 = s1 + 1; s2 < (uint64_t{1} << n); ++s2) {
      if (s1 & s2) continue;
      if (!g.IsConnected(RelSet(s2))) continue;
      if (g.Connects(RelSet(s1), RelSet(s2))) ++count;
    }
  }
  return count;
}

class GraphShapeTest : public ::testing::TestWithParam<int> {};

TEST_P(GraphShapeTest, ChainMatchesClosedForm) {
  uint64_t n = static_cast<uint64_t>(GetParam());
  // #ccp for chains: (n^3 - n) / 6 (Moerkotte & Neumann 2006).
  EXPECT_EQ(CountCsgCmpPairs(Chain(GetParam())), (n * n * n - n) / 6);
}

TEST_P(GraphShapeTest, StarMatchesClosedForm) {
  int n = GetParam();
  // #ccp for stars: (n-1) * 2^(n-2).
  EXPECT_EQ(CountCsgCmpPairs(Star(n)),
            static_cast<uint64_t>(n - 1) << (n - 2));
}

TEST_P(GraphShapeTest, CliqueMatchesClosedForm) {
  int n = GetParam();
  // #ccp for cliques: (3^n - 2^(n+1) + 1) / 2.
  uint64_t p3 = 1;
  for (int i = 0; i < n; ++i) p3 *= 3;
  uint64_t expected = (p3 - (uint64_t{1} << (n + 1)) + 1) / 2;
  EXPECT_EQ(CountCsgCmpPairs(Clique(n)), expected);
}

TEST_P(GraphShapeTest, CycleMatchesBruteForce) {
  EXPECT_EQ(CountCsgCmpPairs(Cycle(GetParam())),
            BruteForceCcp(Cycle(GetParam())));
}

TEST_P(GraphShapeTest, ChainMatchesBruteForce) {
  EXPECT_EQ(CountCsgCmpPairs(Chain(GetParam())),
            BruteForceCcp(Chain(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(Sizes, GraphShapeTest,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 10));

TEST(Dphyp, EmitsEachPairOnce) {
  Hypergraph g = Clique(6);
  std::set<std::pair<RelSet, RelSet>> seen;
  EnumerateCsgCmpPairs(g, [&](RelSet s1, RelSet s2) {
    RelSet a = std::min(s1, s2);
    RelSet b = std::max(s1, s2);
    EXPECT_TRUE(seen.emplace(a, b).second)
        << "pair emitted twice: " << s1.ToString() << " " << s2.ToString();
    EXPECT_FALSE(s1.Intersects(s2));
    EXPECT_TRUE(g.IsConnected(s1));
    EXPECT_TRUE(g.IsConnected(s2));
    EXPECT_TRUE(g.Connects(s1, s2));
  });
}

TEST(Dphyp, BottomUpOrder) {
  // Both components of every emitted pair must already have been emitted as
  // unions of earlier pairs (or be singletons) — the DP prerequisite.
  Hypergraph g = Chain(6);
  std::set<RelSet> materialized;
  for (int i = 0; i < 6; ++i) {
    materialized.insert(RelSet::Single(i));
  }
  EnumerateCsgCmpPairs(g, [&](RelSet s1, RelSet s2) {
    EXPECT_TRUE(materialized.count(s1)) << s1.ToString();
    EXPECT_TRUE(materialized.count(s2)) << s2.ToString();
    materialized.insert(s1.Union(s2));
  });
}

TEST(Dphyp, HypergraphWithComplexEdge) {
  // {0,1} -- {2}: {0} and {2} cannot pair up; only {0,1}+{2} works.
  Hypergraph g(3);
  g.AddEdge(RelSet::Single(0), RelSet::Single(1), 0);
  Hypergraph g2 = g;
  RelSet u;
  u.Add(0);
  u.Add(1);
  g2.AddEdge(u, RelSet::Single(2), 1);
  EXPECT_EQ(CountCsgCmpPairs(g2), BruteForceCcp(g2));
  EXPECT_EQ(CountCsgCmpPairs(g2), 2u);  // {0}{1} and {0,1}{2}
}

TEST(Dphyp, DisconnectedGraphHasNoCrossPairs) {
  Hypergraph g(4);
  g.AddEdge(RelSet::Single(0), RelSet::Single(1), 0);
  g.AddEdge(RelSet::Single(2), RelSet::Single(3), 1);
  EXPECT_EQ(CountCsgCmpPairs(g), 2u);
}

// ---------------------------------------------------------------------------
// Edge-scan oracle. The library's Hypergraph answers Neighborhood, Connects
// and IsConnected from per-node adjacency masks plus a complex-edge list.
// These are the primitives it replaced: each call scans every edge. The
// masks must agree with them set for set, and an enumerator built on them
// must emit the identical (S1, S2) sequence, since the DP breaks cost ties
// by emission order.
// ---------------------------------------------------------------------------

struct EdgeScan {
  const Hypergraph& g;

  RelSet Neighborhood(RelSet s, RelSet x) const {
    RelSet forbidden = s.Union(x);
    RelSet n;
    for (const Hyperedge& e : g.edges()) {
      if (e.left.IsSubsetOf(s) && !e.right.Intersects(forbidden)) {
        n.Add(e.right.Lowest());
      }
      if (e.right.IsSubsetOf(s) && !e.left.Intersects(forbidden)) {
        n.Add(e.left.Lowest());
      }
    }
    return n;
  }

  bool Connects(RelSet s1, RelSet s2) const {
    for (const Hyperedge& e : g.edges()) {
      if (e.left.IsSubsetOf(s1) && e.right.IsSubsetOf(s2)) return true;
      if (e.left.IsSubsetOf(s2) && e.right.IsSubsetOf(s1)) return true;
    }
    return false;
  }

  bool IsConnected(RelSet s) const {
    if (s.empty()) return false;
    if (s.Count() == 1) return true;
    RelSet reached = s.LowestBit();
    bool changed = true;
    while (changed) {
      changed = false;
      for (const Hyperedge& e : g.edges()) {
        if (!e.left.IsSubsetOf(s) || !e.right.IsSubsetOf(s)) continue;
        if (e.left.IsSubsetOf(reached) && !e.right.IsSubsetOf(reached)) {
          reached.UnionWith(e.right);
          changed = true;
        } else if (e.right.IsSubsetOf(reached) &&
                   !e.left.IsSubsetOf(reached)) {
          reached.UnionWith(e.left);
          changed = true;
        }
      }
    }
    return reached == s;
  }
};

using PairSeq = std::vector<std::pair<RelSet, RelSet>>;

/// DPhyp over the edge-scan primitives, with the per-csg neighbor list the
/// library enumerator no longer allocates: the reference emission sequence.
class ReferenceEnumerator {
 public:
  explicit ReferenceEnumerator(const Hypergraph& g) : scan_{g} {}

  PairSeq Run() {
    for (int v = scan_.g.num_nodes() - 1; v >= 0; --v) {
      RelSet s1 = RelSet::Single(v);
      EmitCsg(s1);
      EnumerateCsgRec(s1, RelSet::Below(v + 1));
    }
    return pairs_;
  }

 private:
  void EmitCsg(RelSet s1) {
    RelSet x = s1.Union(RelSet::Below(s1.Lowest() + 1));
    RelSet n = scan_.Neighborhood(s1, x);
    std::vector<int> members;
    for (int v : BitsOf(n)) members.push_back(v);
    for (auto it = members.rbegin(); it != members.rend(); ++it) {
      RelSet s2 = RelSet::Single(*it);
      if (scan_.Connects(s1, s2)) pairs_.emplace_back(s1, s2);
      RelSet below_v = n.Intersect(RelSet::Below(*it + 1));
      EnumerateCmpRec(s1, s2, x.Union(below_v));
    }
  }

  void EnumerateCsgRec(RelSet s1, RelSet x) {
    RelSet n = scan_.Neighborhood(s1, x);
    if (n.empty()) return;
    for (RelSet sub : SubsetsOf(n)) {
      RelSet grown = s1.Union(sub);
      if (scan_.IsConnected(grown)) EmitCsg(grown);
    }
    for (RelSet sub : SubsetsOf(n)) {
      EnumerateCsgRec(s1.Union(sub), x.Union(n));
    }
  }

  void EnumerateCmpRec(RelSet s1, RelSet s2, RelSet x) {
    RelSet n = scan_.Neighborhood(s2, x);
    if (n.empty()) return;
    for (RelSet sub : SubsetsOf(n)) {
      RelSet grown = s2.Union(sub);
      if (scan_.IsConnected(grown) && scan_.Connects(s1, grown)) {
        pairs_.emplace_back(s1, grown);
      }
    }
    for (RelSet sub : SubsetsOf(n)) {
      EnumerateCmpRec(s1, s2.Union(sub), x.Union(n));
    }
  }

  EdgeScan scan_;
  PairSeq pairs_;
};

enum class GraphKind { kSimple, kMixed, kDisconnected, kHighIds };

const char* GraphKindName(GraphKind k) {
  switch (k) {
    case GraphKind::kSimple: return "simple";
    case GraphKind::kMixed: return "mixed";
    case GraphKind::kDisconnected: return "disconnected";
    case GraphKind::kHighIds: return "high-ids";
  }
  return "?";
}

/// A seeded random hypergraph together with the nodes its edges touch.
struct RandomGraph {
  Hypergraph graph;
  std::vector<int> active;
};

/// A random nonempty subset of `pool` with at most `max_size` members.
RelSet RandomSide(Rng& rng, const std::vector<int>& pool, int max_size) {
  int size = static_cast<int>(rng.UniformInt(
      1, std::min<int64_t>(max_size, static_cast<int64_t>(pool.size()))));
  RelSet side;
  while (side.Count() < size) {
    side.Add(pool[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))]);
  }
  return side;
}

/// A random spanning tree of simple edges over `nodes`.
void AddSpanningTree(Rng& rng, const std::vector<int>& nodes, Hypergraph* g,
                     int* op) {
  for (size_t i = 1; i < nodes.size(); ++i) {
    int parent = nodes[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(i) - 1))];
    g->AddEdge(RelSet::Single(parent), RelSet::Single(nodes[i]), (*op)++);
  }
}

/// `count` random edges over `nodes` with disjoint sides of up to
/// `max_side` nodes each (simple edges when `max_side` is 1; a wider edge
/// can still come out simple).
void AddRandomEdges(Rng& rng, const std::vector<int>& nodes, int count,
                    int max_side, Hypergraph* g, int* op) {
  for (int e = 0; e < count; ++e) {
    RelSet left = RandomSide(rng, nodes, max_side);
    std::vector<int> rest;
    for (int v : nodes) {
      if (!left.Contains(v)) rest.push_back(v);
    }
    if (rest.empty()) continue;
    g->AddEdge(left, RandomSide(rng, rest, max_side), (*op)++);
  }
}

RandomGraph MakeRandomGraph(GraphKind kind, uint64_t seed) {
  Rng rng(seed * 7919 + static_cast<uint64_t>(kind));
  int op = 0;
  switch (kind) {
    case GraphKind::kSimple: {
      int n = static_cast<int>(rng.UniformInt(3, 10));
      RandomGraph r{Hypergraph(n), {}};
      for (int v = 0; v < n; ++v) r.active.push_back(v);
      AddSpanningTree(rng, r.active, &r.graph, &op);
      AddRandomEdges(rng, r.active, static_cast<int>(rng.UniformInt(0, n)), 1,
                     &r.graph, &op);
      return r;
    }
    case GraphKind::kMixed: {
      // Simple edges span only a prefix of the nodes; hyperedges reach the
      // rest, so connectivity often hinges on a complex edge.
      int n = static_cast<int>(rng.UniformInt(3, 10));
      RandomGraph r{Hypergraph(n), {}};
      for (int v = 0; v < n; ++v) r.active.push_back(v);
      int spanned = static_cast<int>(rng.UniformInt(1, n));
      AddSpanningTree(
          rng, std::vector<int>(r.active.begin(), r.active.begin() + spanned),
          &r.graph, &op);
      AddRandomEdges(rng, r.active, static_cast<int>(rng.UniformInt(2, 7)), 3,
                     &r.graph, &op);
      return r;
    }
    case GraphKind::kDisconnected: {
      // Two components and an isolated node, interleaved in id order.
      int n = static_cast<int>(rng.UniformInt(5, 10));
      RandomGraph r{Hypergraph(n), {}};
      std::vector<int> a, b;
      for (int v = 0; v + 1 < n; ++v) (v % 2 == 0 ? a : b).push_back(v);
      for (const std::vector<int>* part : {&a, &b}) {
        AddSpanningTree(rng, *part, &r.graph, &op);
        AddRandomEdges(rng, *part, 2, 2, &r.graph, &op);
      }
      for (int v = 0; v < n; ++v) r.active.push_back(v);
      return r;
    }
    case GraphKind::kHighIds: {
      // Eight to ten nodes straddling the word boundary of a 72-node
      // universe; every other node stays isolated.
      RandomGraph r{Hypergraph(72), {}};
      int n = static_cast<int>(rng.UniformInt(8, 10));
      RelSet picked;
      while (picked.Count() < n) {
        picked.Add(static_cast<int>(rng.UniformInt(58, 71)));
      }
      for (int v : BitsOf(picked)) r.active.push_back(v);
      std::vector<int> order = r.active;
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[static_cast<size_t>(rng.UniformInt(
                                    0, static_cast<int64_t>(i) - 1))]);
      }
      AddSpanningTree(rng, order, &r.graph, &op);
      AddRandomEdges(rng, order, static_cast<int>(rng.UniformInt(1, 5)), 2,
                     &r.graph, &op);
      return r;
    }
  }
  return {Hypergraph(0), {}};
}

constexpr GraphKind kGraphKinds[] = {GraphKind::kSimple, GraphKind::kMixed,
                                     GraphKind::kDisconnected,
                                     GraphKind::kHighIds};

TEST(DphypOracle, EmissionSequenceMatchesEdgeScanReference) {
  for (GraphKind kind : kGraphKinds) {
    uint64_t total = 0;
    for (uint64_t seed = 0; seed < 60; ++seed) {
      RandomGraph r = MakeRandomGraph(kind, seed);
      SCOPED_TRACE(std::string(GraphKindName(kind)) + " seed " +
                   std::to_string(seed) + "\n" + r.graph.ToString());
      PairSeq want = ReferenceEnumerator(r.graph).Run();
      PairSeq got;
      uint64_t count = EnumerateCsgCmpPairs(
          r.graph, [&](RelSet s1, RelSet s2) { got.emplace_back(s1, s2); });
      EXPECT_EQ(count, want.size());
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i], want[i])
            << "pair " << i << ": " << got[i].first.ToString() << " "
            << got[i].second.ToString() << " vs "
            << want[i].first.ToString() << " " << want[i].second.ToString();
      }
      EXPECT_EQ(CountCsgCmpPairs(r.graph), want.size());
      total += want.size();
    }
    // The sweep must exercise real enumerations, not empty graphs.
    EXPECT_GT(total, 1000u) << GraphKindName(kind);
  }
}

TEST(DphypOracle, PrimitivesMatchEdgeScan) {
  for (GraphKind kind : kGraphKinds) {
    for (uint64_t seed = 0; seed < 40; ++seed) {
      RandomGraph r = MakeRandomGraph(kind, seed);
      EdgeScan scan{r.graph};
      SCOPED_TRACE(std::string(GraphKindName(kind)) + " seed " +
                   std::to_string(seed) + "\n" + r.graph.ToString());
      Rng rng(seed + 1000);
      // Random subsets of the touched nodes, plus now and then an
      // isolated node of the universe.
      auto random_set = [&]() {
        RelSet s;
        for (int v : r.active) {
          if (rng.Bernoulli(0.4)) s.Add(v);
        }
        if (rng.Bernoulli(0.2)) {
          s.Add(static_cast<int>(rng.UniformInt(0, r.graph.num_nodes() - 1)));
        }
        return s;
      };
      for (int trial = 0; trial < 200; ++trial) {
        RelSet s = random_set();
        RelSet x = random_set();
        RelSet t = random_set();
        RelSet disjoint_t = t.Minus(s);
        EXPECT_EQ(r.graph.Neighborhood(s, x), scan.Neighborhood(s, x))
            << s.ToString() << " " << x.ToString();
        EXPECT_EQ(r.graph.Connects(s, t), scan.Connects(s, t))
            << s.ToString() << " " << t.ToString();
        EXPECT_EQ(r.graph.Connects(s, disjoint_t),
                  scan.Connects(s, disjoint_t))
            << s.ToString() << " " << disjoint_t.ToString();
        EXPECT_EQ(r.graph.IsConnected(s), scan.IsConnected(s))
            << s.ToString();
      }
    }
  }
}

}  // namespace
}  // namespace eadp
