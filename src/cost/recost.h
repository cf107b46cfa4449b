// Incremental plan re-costing under statistics drift.
//
// A cached plan's per-node cost/cardinality annotations were computed from
// the catalog statistics at plan time. When statistics drift, the plan's
// *structure* (join order, grouping placement, keys, predicates) is still a
// valid plan for the structural query class — only the numbers are stale.
// RecostPlan walks an existing PlanNode tree and recomputes cost and
// cardinality bottom-up under the query's CURRENT catalog, mirroring the
// exact formulas PlanBuilder (plangen/op_trees.cc) and the cost model
// apply during enumeration — without enumerating anything. Differential
// pin (tests/drift_test.cpp): with unchanged statistics, the re-costed
// root cost/cardinality are bit-identical to the stored annotations.
//
// This is the "re-evaluate the DP solution under new inputs" half of
// incremental maintenance for monotone dynamic programs (Henzinger et al.,
// PAPERS.md): re-costing is O(plan nodes) where re-planning is
// exponential-ish in relations, so a cache can afford it on every drifted
// hit. The second half — deciding whether the *optimum* may have moved —
// is approximated by DriftCostScale's sensitivity bound: every estimator
// formula is a product/min/max chain over the statistics, so scaling one
// statistic by r scales any plan's cost by at most max(r, 1/r)^2 (the
// exponent-2 covers antijoin/full-outer terms that are anti-monotone in a
// distinct count). The cached optimum's old cost times the product of
// min(r, 1/r)^2 over drifted statistics therefore lower-bounds the fresh
// optimum's cost, giving the serving layer (plangen/plan_cache.h) a cheap
// probe: if the re-costed cached plan is within drift_tolerance of that
// bound, no re-planning can improve on it by more than the tolerance.
//
// The re-costed cost bounds the optimum from above as well: it is the
// cost of a valid complete plan under the current statistics. When a
// drifted hit falls outside the band, the re-plan that follows runs with
// that cost as its bound (plangen.h, Optimize): C_out is monotone, so the
// exact DP drops every candidate costing more without changing the plan
// it returns, and falls back to an unbounded run if the bound undercuts
// the DP's own optimum (DESIGN.md §14, "bounded re-plan").

#ifndef EADP_COST_RECOST_H_
#define EADP_COST_RECOST_H_

#include "algebra/query.h"
#include "plangen/plan.h"
#include "queries/fingerprint.h"

namespace eadp {

/// Root annotations recomputed under the current catalog.
struct RecostResult {
  double cost = 0;
  double cardinality = 0;
  /// False when the walk met a node shape it cannot re-cost (never the
  /// case for plans built by PlanBuilder; defensive for decoded blobs).
  bool ok = false;
};

/// Recomputes cost/cardinality of `plan` bottom-up under `query`'s current
/// catalog and operator selectivities. `query` must belong to the plan's
/// structural fingerprint class (same shapes and indices; statistics free
/// to differ). The plan is not mutated.
RecostResult RecostPlan(PlanPtr plan, const Query& query);

/// Sensitivity lower-bound factor for a statistics move `from` -> `to`:
/// the product over bit-differing statistics of min(r, 1/r)^2 with
/// r = to/from. Multiplying a plan cost computed under `from` by this
/// factor lower-bounds its (and by optimality of the cached plan, any
/// plan's) cost under `to`. Returns 1 when the overlays are bit-equal and
/// 0 when their shapes differ (forcing callers onto the re-plan path).
double DriftCostScale(const StatsOverlay& from, const StatsOverlay& to);

}  // namespace eadp

#endif  // EADP_COST_RECOST_H_
