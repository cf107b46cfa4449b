// Query hypergraphs.
//
// The conflict detector encodes reordering constraints as hyperedges
// (Moerkotte, Fender & Eich, SIGMOD'13): every operator of the input tree
// contributes one hyperedge (L, R) where L and R are the parts of its TES
// on its original left and right side. Simple binary edges are the special
// case |L| = |R| = 1. The DPhyp enumerator walks this structure.
//
// The enumerator's primitives (Neighborhood, Connects, IsConnected) run
// once per grown subset, so they work on masks: every simple edge is filed
// into a per-node adjacency mask, and only the (usually few) complex edges
// are scanned. The results are set for set those of a scan over all edges
// (dphyp_test checks them against that scan), so the csg-cmp-pair emission
// order — and with it every DP tie — does not depend on the representation
// (DESIGN.md §1).

#ifndef EADP_HYPERGRAPH_HYPERGRAPH_H_
#define EADP_HYPERGRAPH_HYPERGRAPH_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bitset.h"

namespace eadp {

/// One hyperedge: the two hypernodes plus the index of the operator (into
/// Query::ops) it stems from.
struct Hyperedge {
  RelSet left;
  RelSet right;
  int op_index = -1;
};

/// A hypergraph over relations {0, ..., num_nodes-1}.
class Hypergraph {
 public:
  explicit Hypergraph(int num_nodes)
      : num_nodes_(num_nodes),
        adjacency_(static_cast<size_t>(num_nodes)) {}

  /// Adds the edge (left, right); both sides must lie within the node range.
  void AddEdge(RelSet left, RelSet right, int op_index);

  int num_nodes() const { return num_nodes_; }
  /// Every edge, simple or complex, in insertion order.
  const std::vector<Hyperedge>& edges() const { return edges_; }

  /// DPhyp neighborhood: representatives of hypernodes reachable from S
  /// while avoiding the forbidden set X. For every edge (u, v) with
  /// u ⊆ S and v ∩ (S ∪ X) = ∅, the representative min(v) is added
  /// (and symmetrically for v ⊆ S). `s` must lie within the node range.
  RelSet Neighborhood(RelSet s, RelSet x) const;

  /// True iff some edge connects a subset of `s1` with a subset of `s2`
  /// (in either orientation). Both sets must lie within the node range.
  bool Connects(RelSet s1, RelSet s2) const;

  /// True iff `s` induces a connected subgraph. `s` must lie within the
  /// node range.
  bool IsConnected(RelSet s) const;

  std::string ToString() const;

 private:
  /// Union of the simple-edge neighbors of the members of `s`.
  RelSet SimpleNeighbors(RelSet s) const {
    assert(s.IsSubsetOf(RelSet::FirstN(num_nodes_)));
    RelSet n;
    for (uint64_t lo = s.low(); lo != 0; lo &= lo - 1) {
      n.UnionWith(adjacency_[static_cast<size_t>(std::countr_zero(lo))]);
    }
    for (uint64_t hi = s.high(); hi != 0; hi &= hi - 1) {
      n.UnionWith(adjacency_[static_cast<size_t>(64 + std::countr_zero(hi))]);
    }
    return n;
  }

  int num_nodes_;
  std::vector<Hyperedge> edges_;
  /// adjacency_[v]: the other endpoints of v's simple edges.
  std::vector<RelSet> adjacency_;
  /// The edges that are not simple, in insertion order.
  std::vector<Hyperedge> complex_edges_;
};

}  // namespace eadp

#endif  // EADP_HYPERGRAPH_HYPERGRAPH_H_
