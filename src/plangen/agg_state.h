// Aggregation-state bookkeeping for plans with pushed-down groupings.
//
// Every plan node tracks, per original aggregate of the query whose
// argument lies inside the plan's relations, whether the aggregate is still
// *raw* (to be computed from base attribute values) or has been
// *partialized* by a pushed-down grouping (its partial value lives in a
// generated column). Pushed groupings additionally introduce count(*)
// columns; the live counts of a plan partition (a subset of) its relations,
// and the product of the counts of one row equals the number of original
// join tuples that row represents. This is the operational form of the
// paper's F¹/F² decompositions and the ⊗ adjustment:
//
//   * a raw duplicate-sensitive aggregate is evaluated with ALL live counts
//     as multipliers (F ⊗ c1 ⊗ c2 ...);
//   * a partialized aggregate is re-aggregated with its outer decomposition,
//     scaled by all live counts EXCEPT the one introduced together with it
//     (its "home" count — those multiplicities are already inside the
//     partial value);
//   * count(*) slots are never partialized separately: Σ Π(all counts)
//     computes them directly (the home grouping's count serves as their
//     partial).
//
// Provenance: splittability/decomposability are paper Sec. 2.1.2, the ⊗
// duplicate adjustment is Sec. 2.1.3, and G_i^+ = G_i ∪ J_i is Sec. 3.1.
//
// Invariants maintained by Partialize/Merge and checked by the executor:
//   * every AggSlot's argument attribute lies inside the owning plan's
//     relation set; slots never migrate between plans, they are merged
//     when two subplans join;
//   * each live count partitions a subset of the plan's relations, and
//     no relation is covered by two live counts;
//   * a partialized slot's home_count always refers to a live count of
//     the same plan (BuildGroupingSpec absorbs every previous count into
//     the fresh one — Σ Π old counts — and rehomes all slots there).

#ifndef EADP_PLANGEN_AGG_STATE_H_
#define EADP_PLANGEN_AGG_STATE_H_

#include <string>
#include <vector>

#include "algebra/query.h"
#include "exec/aggregate_eval.h"
#include "exec/operators.h"

namespace eadp {

/// State of one original aggregate (index into Query::aggregates) within a
/// plan. Only slots whose argument attribute is covered by the plan's
/// relations appear; count(*) slots never appear (see file comment).
struct AggSlot {
  int query_index = -1;
  bool partialized = false;
  std::string partial_column;  ///< generated column holding the partial value
  int home_count = -1;         ///< index into PlanAggState::counts
};

/// One live count(*) column introduced by a pushed grouping.
struct CountColumn {
  std::string column;
};

/// Aggregation state of a plan node.
struct PlanAggState {
  std::vector<AggSlot> slots;
  std::vector<CountColumn> counts;

  bool HasCounts() const { return !counts.empty(); }
};

/// Generates unique column names for partials ("$p0") and counts ("$c0").
///
/// Uniqueness is an invariant of one *plan*: when two subplans join, their
/// slot/count lists concatenate, so every name in one plan must come from
/// one generator. PlanBuilder::Materialize runs one generator per returned
/// plan, after enumeration; candidates never carry names (DESIGN.md §6).
class NameGenerator {
 public:
  std::string FreshPartial() { return "$p" + std::to_string(next_++); }
  std::string FreshCount() { return "$c" + std::to_string(next_++); }

 private:
  int next_ = 0;
};

/// Initial state of a leaf plan over relation `rel`: raw slots for every
/// aggregate whose argument belongs to `rel`.
PlanAggState LeafAggState(const Query& query, int rel);

/// State after a join: slot/count lists concatenate (relation sets are
/// disjoint).
PlanAggState MergeAggStates(const PlanAggState& left,
                            const PlanAggState& right);

/// True iff a grouping with grouping attributes `group_by` may be placed
/// over a plan with state `state`: every raw slot whose argument is not a
/// grouping attribute must be decomposable (Def. 2). Partialized slots
/// re-aggregate via sum/min/max and are always fine.
bool CanGroup(const Query& query, const PlanAggState& state, AttrSet group_by);

/// Builds the concrete grouping specification for pushing Γ_{group_by} over
/// a plan with state `state` (paper Fig. 3, right-hand sides):
///   * every raw decomposable slot with argument outside `group_by` is
///     partialized with its inner decomposition, scaled by the old counts;
///   * every partialized slot is re-aggregated with its outer
///     decomposition, scaled by the old counts except its home count;
///   * a fresh count column is added: count(*) scaled by all old counts.
/// Returns the new state (all affected slots homed at the fresh count).
/// Precondition: CanGroup().
PlanAggState BuildGroupingSpec(const Query& query, const PlanAggState& state,
                               AttrSet group_by, NameGenerator* names,
                               std::vector<ExecAggregate>* aggs_out);

/// Builds the final aggregation vector for the top grouping Γ_G: one output
/// per query aggregate, including count(*) slots (Σ Π counts).
std::vector<ExecAggregate> BuildFinalAggregates(const Query& query,
                                                const PlanAggState& state);

/// Builds the final map expressions for the Eqv. 42 path (G contains a key,
/// input duplicate-free): each query aggregate is computed per single row.
std::vector<MapExpr> BuildFinalMap(const Query& query,
                                   const PlanAggState& state);

/// Default vector entries (symbolic) for the generated columns of `state`,
/// used when the plan becomes the null-padded side of an outer join:
/// count columns default to 1, partialized count-like partials to 0, all
/// other partials stay NULL (paper: c:1 and F¹({⊥})).
struct SymbolicDefault {
  std::string column;
  bool one = false;  ///< true -> 1, false -> 0
};
std::vector<SymbolicDefault> OuterJoinDefaults(const Query& query,
                                               const PlanAggState& state);

}  // namespace eadp

#endif  // EADP_PLANGEN_AGG_STATE_H_
