// The shared csg-cmp-pair combine step: one implementation of the DP-table
// insertion policies that distinguish the plan generators (Fig. 5 single
// best, Fig. 9 complete lists, Fig. 10/12 heuristic single trees, Fig. 13/14
// dominance pruning).
//
// Both drivers of the dynamic program route every candidate cut through
// this class: the exhaustive generator (plangen.cc) feeds it the
// csg-cmp-pairs of the DPhyp enumeration, and the large-query subsystem
// (large_query.h) feeds it the unit-subset splits of its bounded
// subproblems. Keeping the policy in one place is what makes the kIdp
// subproblems literally "the existing Optimize machinery on a smaller
// universe" rather than a reimplementation.

#ifndef EADP_PLANGEN_DP_COMBINE_H_
#define EADP_PLANGEN_DP_COMBINE_H_

#include <vector>

#include "plangen/dp_table.h"
#include "plangen/op_trees.h"
#include "plangen/plangen.h"

namespace eadp {

class CcpCombiner {
 public:
  /// All pointers are borrowed and must outlive the combiner.
  ///
  /// `read_dp` is the table source classes are looked up in; null (the
  /// sequential case) means "same table as `dp`". The intra-query parallel
  /// DP passes the merged global table as `read_dp` and a per-worker shard
  /// as `dp`: a pair's source classes live in completed smaller levels
  /// (global, read-only during the level), while its target class — which
  /// kH2's InsertHeuristic also *reads* via Best(s) — lives in the shard
  /// of the worker owning that class.
  ///
  /// `cost_bound` (plangen.h, Optimize) prunes the kDphyp/kEaAll/kEaPrune
  /// policies only: a source pair whose summed cost exceeds it is never
  /// combined, and a built tree costing more is never inserted. C_out is
  /// monotone (cost_model.h), so no discarded tree is part of a complete
  /// plan within the bound. kH1/kH2 ignore the bound.
  ///
  /// `h2_tolerance` is kH2's factor F (PlannerKnobs::h2_tolerance); no
  /// other policy reads it.
  CcpCombiner(const Query* query, PlanBuilder* builder, DpTable* dp,
              Algorithm algorithm, double cost_bound = kNoCostBound,
              double h2_tolerance = 0, const DpTable* read_dp = nullptr);

  /// Applies the input operators crossing the (s1, s2) cut — if any apply —
  /// and inserts the produced trees into the DP table under the algorithm's
  /// insertion policy. Trees covering the whole query arrive finalized (the
  /// OpTrees contract) and are kept single-best regardless of policy.
  /// Returns true iff plans were built and offered to the table — false
  /// when a source class holds no plans, no operator crosses the cut, or
  /// the cut is conflict-blocked, checked in that order: an empty source
  /// (most pairs of a bounded run) never pays for FindCrossingOps. (The
  /// offered plans may still all have been pruned away by the insertion
  /// policy or the cost bound.)
  bool Combine(RelSet s1, RelSet s2);

 private:
  /// BuildPlansH1 keeps the plain cheapest tree; BuildPlansH2 compares with
  /// eagerness-adjusted costs (CompareAdjustedCosts, Fig. 12).
  void InsertHeuristic(RelSet s, PlanPtr plan, bool top);

  const Query* query_;
  PlanBuilder* builder_;
  DpTable* dp_;             ///< target-class reads and all writes
  const DpTable* read_dp_;  ///< source-class reads (== dp_ sequentially)
  Algorithm algorithm_;
  double h2_tolerance_;
  double cost_bound_;
  /// Scratch list reused across cuts (OpTrees appends into it) so the DP
  /// loop does not allocate per pair.
  std::vector<PlanPtr> trees_;
};

}  // namespace eadp

#endif  // EADP_PLANGEN_DP_COMBINE_H_
