// Physical-ish plan trees produced by the plan generators.
//
// Memory model (docs/DESIGN.md §6): every PlanNode and every side payload
// is allocated from a PlanArena owned by the optimization run; PlanPtr is a
// plain `const PlanNode*` into that arena. Nodes are immutable once built
// and freely shared between DP-table entries — ownership is one object (the
// arena), not per-node refcounts. The node itself is a slim, trivially-
// destructible value: rarely-populated payloads (crossing-operator info,
// outer-join symbolic defaults, grouping aggregates, final-map/output
// columns, FD sets) live behind pointers to arena-interned side structs,
// and the hot derived properties (relation set, cardinalities, C_out cost,
// candidate keys κ of Sec. 2.3, duplicate-freeness) are inline or interned
// (keys) so dominance checks can compare pointers before contents.
//
// Two kinds of node share this type. *Candidates* are built during
// enumeration and carry only what the DP reads (cardinalities, cost, keys,
// FDs, `raw_nondecomp`); their aggregation payloads (agg state, defaults,
// grouping aggregates, final map) are null. *Materialized* nodes come from
// PlanBuilder::Materialize, which rebuilds the one returned tree with every
// payload filled in. Only materialized plans leave the planner — the
// executor, serde, caches and ValidatePlan all expect them.

#ifndef EADP_PLANGEN_PLAN_H_
#define EADP_PLANGEN_PLAN_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/operator_tree.h"
#include "algebra/predicate.h"
#include "algebra/query.h"
#include "catalog/functional_dependency.h"
#include "common/arena.h"
#include "common/bitset.h"
#include "plangen/agg_state.h"
#include "plangen/keys.h"

namespace eadp {

/// Plan node kinds. kGroup is a pushed-down grouping; kFinalGroup the top
/// grouping Γ_G; kFinalMap the χ/Π finalization (Eqv. 42 path and avg
/// reconstitution).
enum class PlanOp {
  kScan,
  kJoin,
  kLeftSemi,
  kLeftAnti,
  kLeftOuter,
  kFullOuter,
  kGroupJoin,
  kGroup,
  kFinalGroup,
  kFinalMap,
};

const char* PlanOpName(PlanOp op);

/// Maps an input operator kind to its plan node kind.
PlanOp PlanOpFromOpKind(OpKind kind);

struct PlanNode;
using PlanPtr = const PlanNode*;

/// Payload of a binary plan node, interned per distinct crossing-operator
/// list: all of it is a pure function of the applied input operators, so
/// every plan node built for a cut with the same operators shares one
/// instance (and MakeJoin does no predicate/selectivity work at all).
struct CrossingInfo {
  std::vector<int> op_indices;  ///< query ops applied here (primary first)
  JoinPredicate predicate;      ///< conjunction over all applied ops
  double selectivity = 1.0;     ///< product over all applied ops
  AggregateVector groupjoin_aggs;  ///< primary op kGroupJoin
};

/// Payload of a materialized kFinalMap node.
struct FinalMapInfo {
  std::vector<MapExpr> exprs;
  std::vector<std::string> output_columns;
};

struct PlanNode {
  PlanOp op = PlanOp::kScan;
  RelSet rels;

  // kScan
  int relation = -1;

  // Binary operators. `crossing` is interned (see CrossingInfo); the
  // outer-join symbolic default vectors (Eqvs. 7/8) are set on
  // materialized nodes only.
  PlanPtr left = nullptr;
  PlanPtr right = nullptr;
  const CrossingInfo* crossing = nullptr;
  const std::vector<SymbolicDefault>* left_defaults_ = nullptr;   ///< kFullOuter
  const std::vector<SymbolicDefault>* right_defaults_ = nullptr;  ///< kLeftOuter/kFullOuter

  // kGroup / kFinalGroup (aggregates on materialized nodes only).
  AttrSet group_by;
  const std::vector<ExecAggregate>* group_aggs_ = nullptr;

  // kFinalMap (materialized nodes only).
  const FinalMapInfo* final_map_ = nullptr;

  // Derived properties.
  double cardinality = 0;
  /// Uncapped independence-product cardinality along inner-join chains.
  /// Key-implied caps (which make estimates consistent with κ) are applied
  /// node-locally on top of this; chaining the *capped* values instead
  /// would make estimates depend on join order and break the optimality of
  /// dominance pruning (see DESIGN.md §3).
  double raw_cardinality = 0;
  /// Pure independence product over base cardinalities and applied
  /// selectivities, ignoring groupings and preservation semantics. Fully
  /// order-invariant; used as the grouping-invariant upper bound for the
  /// distinct join values that drive semijoin/antijoin match probabilities.
  double pregroup_cardinality = 0;
  double cost = 0;
  /// Minimal candidate keys, interned: equal key sets share one pointer
  /// within an arena, so the dominance test compares pointers first.
  const KeySet* keys_ = nullptr;
  bool duplicate_free = false;
  /// Functional dependencies (populated only when
  /// BuilderOptions::track_fds is set; see plan_fds.h).
  const FdSet* fds_ = nullptr;
  /// Aggregation state (see agg_state.h); set on materialized nodes only.
  const PlanAggState* agg_state_ = nullptr;
  /// Arguments of the raw, non-decomposable aggregates visible in this
  /// subplan — all a candidate needs for the CanGroup test (such slots are
  /// never partialized, so they stay raw through every grouping).
  AttrSet raw_nondecomp;

  // Accessors that hide the payload indirection (null pointer == empty).
  const std::vector<int>& op_indices() const;
  const JoinPredicate& predicate() const;
  const AggregateVector& groupjoin_aggs() const;
  const std::vector<SymbolicDefault>& left_defaults() const;
  const std::vector<SymbolicDefault>& right_defaults() const;
  const std::vector<ExecAggregate>& group_aggs() const;
  const std::vector<MapExpr>& final_map() const;
  const std::vector<std::string>& output_columns() const;
  const KeySet& keys() const;
  const FdSet& fds() const;
  const PlanAggState& agg_state() const;

  /// Number of grouping operators that are direct children of this node's
  /// top operator — the paper's Eagerness (Sec. 4.5).
  int Eagerness() const {
    int e = 0;
    if (left && left->op == PlanOp::kGroup) ++e;
    if (right && right->op == PlanOp::kGroup) ++e;
    return e;
  }

  bool IsBinary() const {
    return op != PlanOp::kScan && op != PlanOp::kGroup &&
           op != PlanOp::kFinalGroup && op != PlanOp::kFinalMap;
  }

  /// Pretty-printed plan tree with per-node cost/cardinality.
  std::string ToString(const Catalog& catalog, int indent = 0) const;

  /// Number of operator nodes in the plan.
  int NodeCount() const;

  /// Number of kGroup nodes (pushed groupings) in the plan.
  int PushedGroupingCount() const;
};

/// Owns every PlanNode and side payload of one optimization run. Optimize()
/// hands the arena to OptimizeResult, which keeps the returned plan alive;
/// standalone PlanBuilder users (tests) get one implicitly. Also hosts the
/// KeySet interner: within one arena, equal key sets resolve to the same
/// pointer, which the dominance test exploits.
class PlanArena {
 public:
  /// The DP's arena: an eager first block (see Arena()).
  PlanArena() = default;
  /// A right-sized arena for a plan whose size is known up front (a
  /// decoded blob): one untouched first block of `first_block_bytes`.
  explicit PlanArena(size_t first_block_bytes) : arena_(first_block_bytes) {}
  PlanArena(const PlanArena&) = delete;
  PlanArena& operator=(const PlanArena&) = delete;

  /// A default-constructed node.
  PlanNode* NewNode() {
    ++nodes_;
    return arena_.New<PlanNode>();
  }
  /// A shallow copy of `other` (payload pointers are shared — fine, they
  /// are immutable).
  PlanNode* NewNode(const PlanNode& other) {
    ++nodes_;
    return arena_.New<PlanNode>(other);
  }

  /// Returns the unique arena-owned KeySet equal to `keys`.
  const KeySet* InternKeys(const KeySet& keys);

  /// Ties `sibling`'s lifetime to this arena: plans built by the
  /// intra-query parallel DP mix nodes from per-worker arenas (a node's
  /// children may live in another worker's arena), so the primary arena
  /// handed to OptimizeResult adopts every worker arena — one
  /// shared_ptr<PlanArena> still keeps the entire plan alive, and the
  /// single-arena ownership contract of DESIGN.md §6 is preserved for
  /// callers.
  void AdoptSibling(std::shared_ptr<PlanArena> sibling) {
    siblings_.push_back(std::move(sibling));
  }

  /// Raw arena access for side payloads.
  Arena& arena() { return arena_; }

  size_t nodes_allocated() const { return nodes_; }
  /// Bytes in this arena plus every adopted sibling (so cache accounting
  /// sees the full footprint of a parallel-built plan).
  size_t bytes_used() const {
    size_t n = arena_.bytes_used();
    for (const auto& s : siblings_) n += s->bytes_used();
    return n;
  }

 private:
  Arena arena_;
  /// Content hash -> interned KeySets with that hash (collision chain).
  std::unordered_map<uint64_t, std::vector<const KeySet*>> key_interner_;
  std::vector<std::shared_ptr<PlanArena>> siblings_;
  size_t nodes_ = 0;
};

}  // namespace eadp

#endif  // EADP_PLANGEN_PLAN_H_
