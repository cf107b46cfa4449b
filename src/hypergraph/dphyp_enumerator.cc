#include "hypergraph/dphyp_enumerator.h"

#include <vector>

namespace eadp {

namespace {

/// Templated on the emit callback so the per-pair call inlines: the
/// enumeration itself is a few bitset operations per pair, and routing
/// every emission through a std::function indirection measurably taxes the
/// cheap generators (kDphyp/kH1). The public std::function entry points
/// instantiate this once; CollectCsgCmpPairsBySize instantiates it with
/// the direct bucketing lambda.
template <typename EmitFn>
class Enumerator {
 public:
  Enumerator(const Hypergraph& graph, const EmitFn& emit)
      : graph_(graph), emit_(emit) {}

  uint64_t Run() {
    int n = graph_.num_nodes();
    for (int v = n - 1; v >= 0; --v) {
      RelSet s1 = RelSet::Single(v);
      EmitCsg(s1);
      EnumerateCsgRec(s1, RelSet::Below(v + 1));
    }
    return count_;
  }

 private:
  void EmitCsg(RelSet s1) {
    RelSet x = s1.Union(RelSet::Below(s1.Lowest() + 1));
    RelSet n = graph_.Neighborhood(s1, x);
    // Descending order over the neighborhood.
    for (RelSet rest = n; !rest.empty();) {
      int v = rest.Highest();
      rest.Remove(v);
      RelSet s2 = RelSet::Single(v);
      if (graph_.Connects(s1, s2)) Emit(s1, s2);
      // Forbid smaller-or-equal neighbors so each S2 is grown exactly once.
      RelSet below_v = n.Intersect(RelSet::Below(v + 1));
      EnumerateCmpRec(s1, s2, x.Union(below_v));
    }
  }

  void EnumerateCsgRec(RelSet s1, RelSet x) {
    RelSet n = graph_.Neighborhood(s1, x);
    if (n.empty()) return;
    for (RelSet sub : SubsetsOf(n)) {
      RelSet grown = s1.Union(sub);
      if (graph_.IsConnected(grown)) EmitCsg(grown);
    }
    for (RelSet sub : SubsetsOf(n)) {
      EnumerateCsgRec(s1.Union(sub), x.Union(n));
    }
  }

  void EnumerateCmpRec(RelSet s1, RelSet s2, RelSet x) {
    RelSet n = graph_.Neighborhood(s2, x);
    if (n.empty()) return;
    for (RelSet sub : SubsetsOf(n)) {
      RelSet grown = s2.Union(sub);
      if (graph_.IsConnected(grown) && graph_.Connects(s1, grown)) {
        Emit(s1, grown);
      }
    }
    for (RelSet sub : SubsetsOf(n)) {
      EnumerateCmpRec(s1, s2.Union(sub), x.Union(n));
    }
  }

  void Emit(RelSet s1, RelSet s2) {
    ++count_;
    emit_(s1, s2);
  }

  const Hypergraph& graph_;
  const EmitFn& emit_;
  uint64_t count_ = 0;
};

template <typename EmitFn>
uint64_t RunEnumeration(const Hypergraph& graph, const EmitFn& emit) {
  Enumerator<EmitFn> e(graph, emit);
  return e.Run();
}

}  // namespace

uint64_t EnumerateCsgCmpPairs(const Hypergraph& graph, const CcpCallback& cb) {
  if (!cb) return CountCsgCmpPairs(graph);
  return RunEnumeration(graph, cb);
}

uint64_t CountCsgCmpPairs(const Hypergraph& graph) {
  return RunEnumeration(graph, [](RelSet, RelSet) {});
}

uint64_t CollectCsgCmpPairsBySize(const Hypergraph& graph,
                                  std::vector<std::vector<CcpPair>>* levels) {
  levels->clear();
  levels->resize(static_cast<size_t>(graph.num_nodes()) + 1);
  return RunEnumeration(graph, [levels](RelSet s1, RelSet s2) {
    (*levels)[static_cast<size_t>(s1.Union(s2).Count())].push_back({s1, s2});
  });
}

}  // namespace eadp
