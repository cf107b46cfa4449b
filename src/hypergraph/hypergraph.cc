#include "hypergraph/hypergraph.h"

#include <cassert>

#include "common/strings.h"

namespace eadp {

void Hypergraph::AddEdge(RelSet left, RelSet right, int op_index) {
  assert(left.Union(right).IsSubsetOf(RelSet::FirstN(num_nodes_)));
  edges_.push_back({left, right, op_index});
  if (left.Count() == 1 && right.Count() == 1) {
    adjacency_[static_cast<size_t>(left.Lowest())].UnionWith(right);
    adjacency_[static_cast<size_t>(right.Lowest())].UnionWith(left);
  } else {
    complex_edges_.push_back(edges_.back());
  }
}

RelSet Hypergraph::Neighborhood(RelSet s, RelSet x) const {
  RelSet forbidden = s.Union(x);
  RelSet n = SimpleNeighbors(s).Minus(forbidden);
  for (const Hyperedge& e : complex_edges_) {
    if (e.left.IsSubsetOf(s) && !e.right.Intersects(forbidden)) {
      n.Add(e.right.Lowest());
    }
    if (e.right.IsSubsetOf(s) && !e.left.Intersects(forbidden)) {
      n.Add(e.left.Lowest());
    }
  }
  return n;
}

bool Hypergraph::Connects(RelSet s1, RelSet s2) const {
  // Adjacency is symmetric: walk the smaller side's masks.
  RelSet small = s1.Count() <= s2.Count() ? s1 : s2;
  RelSet large = small == s1 ? s2 : s1;
  if (SimpleNeighbors(small).Intersects(large)) return true;
  for (const Hyperedge& e : complex_edges_) {
    if (e.left.IsSubsetOf(s1) && e.right.IsSubsetOf(s2)) return true;
    if (e.left.IsSubsetOf(s2) && e.right.IsSubsetOf(s1)) return true;
  }
  return false;
}

bool Hypergraph::IsConnected(RelSet s) const {
  if (s.empty()) return false;
  RelSet reached = s.LowestBit();
  RelSet frontier = reached;
  while (true) {
    // Simple edges: breadth-first over the masks, confined to s.
    while (!frontier.empty()) {
      frontier = SimpleNeighbors(frontier).Intersect(s).Minus(reached);
      reached.UnionWith(frontier);
    }
    if (reached == s) return true;
    // A complex edge inside s whose one side is reached reaches its other
    // side whole; repeat until neither kind of edge adds a node.
    for (const Hyperedge& e : complex_edges_) {
      if (!e.left.IsSubsetOf(s) || !e.right.IsSubsetOf(s)) continue;
      if (e.left.IsSubsetOf(reached)) frontier.UnionWith(e.right);
      if (e.right.IsSubsetOf(reached)) frontier.UnionWith(e.left);
    }
    frontier = frontier.Minus(reached);
    if (frontier.empty()) return false;
    reached.UnionWith(frontier);
  }
}

std::string Hypergraph::ToString() const {
  std::string s = StrFormat("Hypergraph(%d nodes)\n", num_nodes_);
  for (const Hyperedge& e : edges_) {
    s += "  " + e.left.ToString() + " -- " + e.right.ToString() +
         StrFormat(" (op %d)\n", e.op_index);
  }
  return s;
}

}  // namespace eadp
