// Large-query plan generation: greedy operator ordering (GOO) and
// iterative dynamic programming (IDP), the strategies behind the
// adaptive facade (OptimizeAdaptiveUncached, plangen.h).
//
// The exhaustive generators enumerate every csg-cmp-pair of the query
// hypergraph, which hits a wall around 15 relations on dense graphs. The
// classic ways past that wall, reproduced here on top of the existing
// machinery (ConflictDetector, PlanBuilder, DpTable, CcpCombiner):
//
//   OptimizeGreedy (kGoo) — maintains one subplan per partition block
//     ("unit"), starting from the base-relation scans, and repeatedly
//     merges the pair of units whose cheapest OpTrees combination has the
//     lowest cost. Eager-aggregation placement is decided locally per
//     merge: OpTrees offers T1 ◦ T2, Γ(T1) ◦ T2, T1 ◦ Γ(T2), Γ(T1) ◦ Γ(T2)
//     and the greedy step simply takes the cheapest (PlanAggState carries
//     the bookkeeping). Candidate merges are cached per unit pair and only
//     pairs touching the merged unit are re-evaluated, so a full run costs
//     O(n^2) crossing-operator probes. When conflict rules block every
//     remaining pair, the run falls back to the original operator tree —
//     which is always applicable — so kGoo terminates with a valid plan on
//     every satisfiable query.
//
//   OptimizeIdp (kIdp) — IDP1-style iterative DP: greedily selects a
//     connected group of at most OptimizerOptions::idp_block_size units
//     (smallest-cardinality seed, grown by smallest-cardinality adjacent
//     units), runs an exact bounded DP over that group — every split of
//     every unit subset, routed through the same CcpCombiner as the
//     exhaustive generators under kEaPrune's policy (dominance-pruned
//     plan lists) — and replaces the group by the winning subplan.
//     Repeating until one unit remains stitches the winners into a
//     complete plan. Each subproblem uses a fresh DpTable and runs one
//     sequential split loop on the calling thread, whatever
//     PlannerContext::dp_threads says; losing subproblem plans are
//     dropped wholesale when it dies. See docs/DESIGN.md §8 for the
//     stitching invariants.
//
//   OptimizeOriginal — the plan of the input operator tree itself (no
//     reordering, no eager aggregation, single top grouping). Cheap,
//     always valid; the terminal fallback and the "how bad is no
//     optimization" baseline.
//
// All three return plans that pass plan_validator and execute to the
// canonical result (large_query_test); kGoo/kIdp costs are bounded below
// by the kEaPrune optimum, which the differential tests pin on every
// corpus query small enough to enumerate exhaustively.

#ifndef EADP_PLANGEN_LARGE_QUERY_H_
#define EADP_PLANGEN_LARGE_QUERY_H_

#include "algebra/query.h"
#include "plangen/plangen.h"

namespace eadp {

/// Greedy operator ordering. Never fails on satisfiable queries (falls
/// back to the original tree when greedy merging gets stuck).
///
/// `merge_budget` is a test seam, like `cost_bound` a per-call argument
/// outside plan identity that the facade never passes: after that many
/// greedy merges the run takes its original-tree fallback (-1, the
/// default, is unlimited). The fallback's natural trigger — conflict rules
/// blocking every remaining unit pair mid-run — has no known witness
/// among tree-shaped single-predicate queries (see the audit note in
/// large_query.cc), so the regression tests drive the fallback through
/// this cap: it funnels a genuinely partially-merged state through the
/// very same branch.
OptimizeResult OptimizeGreedy(const Query& query,
                              const OptimizerOptions& options,
                              int merge_budget = -1);

/// The cost of OptimizeGreedy's plan, bit for bit, without materializing
/// the plan or filling stats: the adaptive facade's cost-bound seed for
/// the exact enumeration (DESIGN.md §14, "seeded bound"). kNoCostBound
/// when kGoo finds no plan. `merge_budget` as for OptimizeGreedy.
double GreedyPlanCost(const Query& query, const OptimizerOptions& options,
                      int merge_budget = -1);

/// Iterative DP with bounded exact subproblems. Returns a null plan only
/// when conflict rules leave no unit group combinable (the adaptive facade
/// then falls back to kGoo), or when the run gives up under `cost_bound`.
///
/// `cost_bound` is the cost of a complete plan IDP races against (kGoo's,
/// in the adaptive facade). Every subproblem's combiner prunes plans
/// costing more than the bound, and the run returns a null plan as soon
/// as a subproblem's winner costs more — the final plan contains that
/// winner, so it would cost more than the bound and lose the race.
/// Otherwise the plan is byte-identical to the unbounded run's (DESIGN.md
/// §14, "seeded bound"). Plans costing exactly the bound are kept, since
/// PickAdaptiveWinner gives ties to kIdp.
OptimizeResult OptimizeIdp(const Query& query, const OptimizerOptions& options,
                           double cost_bound = kNoCostBound);

/// The unoptimized plan: the query's own operator tree, finalized with the
/// single top grouping. Null only if some original cut admits no operator
/// (cannot happen for queries built from operator trees). There is no
/// Algorithm member for the unoptimized baseline, so
/// `result.stats.algorithm` is left at the caller's `options.algorithm` —
/// callers reporting on it should label the result themselves.
OptimizeResult OptimizeOriginal(const Query& query,
                                const OptimizerOptions& options);

}  // namespace eadp

#endif  // EADP_PLANGEN_LARGE_QUERY_H_
