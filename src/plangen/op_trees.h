// PlanBuilder: constructs plan nodes and the OpTrees variants (Fig. 6).
//
// Given two subplans T1, T2 and the set of input operators that cross the
// (S1, S2) cut, OpTrees produces up to four join trees:
//     T1 ◦ T2,  Γ(T1) ◦ T2,  T1 ◦ Γ(T2),  Γ(T1) ◦ Γ(T2),
// where Γ groups on G_i^+ (grouping attributes plus pending join
// attributes). Validity of a pushed grouping (the paper's Valid test)
// combines three checks:
//   * the operator admits the push on that side (Fig. 3: inner and full
//     outer joins on both sides, left outerjoin on both sides — the right
//     side via the generalized outerjoin with defaults — semijoin, antijoin
//     and groupjoin on the left side only);
//   * the affected part of the aggregation vector is decomposable
//     (agg_state.h CanGroup);
//   * NeedsGrouping(G_i^+, T_i) holds — otherwise the grouping is a waste
//     (Fig. 6, lines 10/15/20).
//
// When S1 ∪ S2 covers the whole query, every produced tree is finalized:
// either a top grouping Γ_G is added, or — if G contains a key and the
// input is duplicate-free — the grouping is replaced by a map + projection
// (Eqv. 42).
//
// Candidates versus materialized plans (docs/DESIGN.md §6): while the DP
// enumerates, MakeScan/MakeJoin/MakeGrouping/FinalizeTop build *candidate*
// nodes that carry only what the DP reads — cardinalities, cost, keys (and
// FDs when tracked) plus `raw_nondecomp`, the arguments of raw
// non-decomposable aggregates, which is all the Valid test needs. No
// aggregation state, default vector, aggregate vector or generated column
// name is built per candidate. Materialize() rebuilds the one returned tree
// with every payload (agg_state.h builders) and numbers its generated
// columns in tree order; the planner calls it at its exits, so only
// materialized plans reach the executor, serde and the caches.

#ifndef EADP_PLANGEN_OP_TREES_H_
#define EADP_PLANGEN_OP_TREES_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "algebra/query.h"
#include "cardinality/estimator.h"
#include "common/rng.h"
#include "conflict/conflict_detector.h"
#include "cost/cost_model.h"
#include "plangen/agg_state.h"
#include "plangen/plan.h"

namespace eadp {

/// The input operators applied at one csg-cmp-pair. All operators whose SES
/// spans the (S1, S2) cut are applied together (their predicates conjoin
/// and selectivities multiply); at most one of them may be non-inner — it
/// becomes the primary operator and determines the node kind. The payload
/// (`info`) is interned in the builder's arena and shared by every plan
/// node built for this operator list. The two sides' join attributes are
/// facts of the ccp, derived once here rather than per plan pair.
struct CrossingOps {
  bool valid = false;
  bool swap = false;  ///< apply with arguments (S2, S1) instead of (S1, S2)
  OpKind primary_kind = OpKind::kJoin;
  const CrossingInfo* info = nullptr;  ///< op indices, predicate, selectivity
  /// The predicate's attributes owned by the left and the right argument
  /// (after orientation): what κ and the semijoin estimate test.
  AttrSet left_join_attrs;
  AttrSet right_join_attrs;
};

/// The class-level half of the Valid test for both arguments of one
/// oriented ccp: whether the operator and the pending groupjoins admit a
/// pushed grouping on that side at all, and the side's G+. A function of
/// the two classes and the operator, so a ccp computes it once for all of
/// its plan pairs (PlanBuilder::SideGroupings).
struct GroupingSides {
  bool left = false;
  bool right = false;
  AttrSet left_g_plus;   ///< G+ of the left class (when `left`)
  AttrSet right_g_plus;  ///< G+ of the right class (when `right`)
};

/// Options that alter plan construction. A planning run fills them from
/// its knobs through EffectiveBuilderOptions (plangen.h).
struct BuilderOptions {
  /// Replace an unnecessary top grouping by map + projection (Eqv. 42).
  bool top_grouping_elimination = true;
  /// Maintain full functional-dependency sets on every plan node
  /// (needed by PlannerKnobs::full_fd_dominance).
  bool track_fds = false;
};

class PlanBuilder {
 public:
  /// Builds plans into `arena`; creates a private arena when none is given
  /// (standalone users — tests, examples — need no ceremony). Optimize()
  /// passes an explicit arena and moves it into OptimizeResult, which is
  /// what keeps the returned plan alive.
  PlanBuilder(const Query* query, const ConflictDetector* conflicts,
              const BuilderOptions& options = {},
              std::shared_ptr<PlanArena> arena = nullptr);

  /// Leaf plan: table scan of relation `rel`.
  PlanPtr MakeScan(int rel);

  /// Determines the operators crossing the (s1, s2) cut and whether they
  /// can be applied there (conflict rules, orientation, single non-inner).
  CrossingOps FindCrossingOps(RelSet s1, RelSet s2);

  /// Builds `left ◦ right` for the crossing operators (orientation must
  /// already match `crossing.swap`).
  PlanPtr MakeJoin(PlanPtr left, PlanPtr right, const CrossingOps& crossing);

  /// The class-level grouping facts of the cut with `left` and `right` as
  /// the arguments of `crossing` (see GroupingSides).
  GroupingSides SideGroupings(RelSet left, RelSet right,
                              const CrossingOps& crossing) const;

  /// True iff Γ_{G+} may be pushed onto `child`, given that its class
  /// admits it with `g_plus` (GroupingSides): `child` is no grouping
  /// itself, the grouping is no waste, and `child->raw_nondecomp ⊆ G+`
  /// (which equals CanGroup on the materialized child).
  bool CanPushGrouping(PlanPtr child, AttrSet g_plus) const;

  /// Γ_{G+}(child). Precondition: CanPushGrouping(child, g_plus).
  PlanPtr MakeGrouping(PlanPtr child, AttrSet g_plus);

  /// The OpTrees routine of Fig. 6. Appends up to four trees to `out`;
  /// when S1 ∪ S2 covers the query, trees are finalized (top grouping or
  /// Eqv. 42 map). `sides` is SideGroupings of t1's and t2's classes; the
  /// overload without it derives it, for callers with a single pair.
  void OpTrees(PlanPtr t1, PlanPtr t2, const CrossingOps& crossing,
               const GroupingSides& sides, std::vector<PlanPtr>* out);
  void OpTrees(PlanPtr t1, PlanPtr t2, const CrossingOps& crossing,
               std::vector<PlanPtr>* out) {
    OpTrees(t1, t2, crossing, SideGroupings(t1->rels, t2->rels, crossing),
            out);
  }

  /// Adds the top grouping / finalization to a plan covering all relations.
  PlanPtr FinalizeTop(PlanPtr t);

  /// Copies the candidate tree `plan` (any subtree, finalized or not) into
  /// this builder's arena with its aggregation payloads built: agg states,
  /// outer-join defaults, grouping and final aggregates, and the final map.
  /// Generated columns are named "$c<n>"/"$p<n>" in postorder, so equal
  /// trees materialize to equal plans. Does not count as plans built.
  PlanPtr Materialize(PlanPtr plan);

  const CardinalityEstimator& estimator() const { return estimator_; }
  uint64_t plans_built() const { return plans_built_; }
  const std::shared_ptr<PlanArena>& arena() const { return arena_; }

 private:
  PlanNode* NewNode() {
    ++plans_built_;
    return arena_->NewNode();
  }

  /// The operators whose SES meets `s`: the union of the incidence masks
  /// of its relations.
  Bitset128 OpsTouching(RelSet s) const {
    Bitset128 ops;
    for (int r : BitsOf(s)) ops.UnionWith(op_touch_[static_cast<size_t>(r)]);
    return ops;
  }

  /// Interns the crossing payload for `ops` (primary first). `mask` is the
  /// bitset of op indices — queries carry at most 127 operators, so the set
  /// itself is the interning key (the primary, and hence the list order,
  /// is a function of the set: it is the unique non-inner member).
  const CrossingInfo* InternCrossing(Bitset128 mask, const int* ops,
                                     size_t count);
  PlanPtr MaterializeNode(PlanPtr candidate, NameGenerator* names);

  const Query* query_;
  const ConflictDetector* conflicts_;
  BuilderOptions options_;
  CardinalityEstimator estimator_;
  CostModel cost_model_;
  uint64_t plans_built_ = 0;

  std::shared_ptr<PlanArena> arena_;
  /// Incidence masks, built once per run (docs/DESIGN.md §7): the
  /// conflict detector's SES of each operator, contiguous, and per
  /// relation id the operators whose SES contains it. FindCrossingOps
  /// tests SES containment only for OpsTouching(S1) ∩ OpsTouching(S2).
  std::vector<RelSet> op_ses_;
  std::vector<Bitset128> op_touch_;
  /// Op-index bitmask -> interned payload.
  std::unordered_map<Bitset128, const CrossingInfo*, Bitset128::Hasher>
      crossing_interner_;
};

}  // namespace eadp

#endif  // EADP_PLANGEN_OP_TREES_H_
