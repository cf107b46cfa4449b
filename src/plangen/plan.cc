#include "plangen/plan.h"

#include <algorithm>

#include "common/strings.h"

namespace eadp {

const char* PlanOpName(PlanOp op) {
  switch (op) {
    case PlanOp::kScan:
      return "scan";
    case PlanOp::kJoin:
      return "join";
    case PlanOp::kLeftSemi:
      return "lsemi";
    case PlanOp::kLeftAnti:
      return "lanti";
    case PlanOp::kLeftOuter:
      return "louter";
    case PlanOp::kFullOuter:
      return "fouter";
    case PlanOp::kGroupJoin:
      return "groupjoin";
    case PlanOp::kGroup:
      return "group";
    case PlanOp::kFinalGroup:
      return "final-group";
    case PlanOp::kFinalMap:
      return "final-map";
  }
  return "?";
}

PlanOp PlanOpFromOpKind(OpKind kind) {
  switch (kind) {
    case OpKind::kJoin:
      return PlanOp::kJoin;
    case OpKind::kLeftSemi:
      return PlanOp::kLeftSemi;
    case OpKind::kLeftAnti:
      return PlanOp::kLeftAnti;
    case OpKind::kLeftOuter:
      return PlanOp::kLeftOuter;
    case OpKind::kFullOuter:
      return PlanOp::kFullOuter;
    case OpKind::kGroupJoin:
      return PlanOp::kGroupJoin;
  }
  return PlanOp::kJoin;
}

namespace {

// Shared empties behind the accessors: a null payload pointer reads as an
// empty payload, so consumers never branch on presence.
const CrossingInfo kNoCrossing;
const std::vector<SymbolicDefault> kNoDefaults;
const std::vector<ExecAggregate> kNoAggs;
const FinalMapInfo kNoFinalMap;
const KeySet kNoKeys;
const FdSet kNoFds;
const PlanAggState kNoAggState;

}  // namespace

const std::vector<int>& PlanNode::op_indices() const {
  return (crossing ? *crossing : kNoCrossing).op_indices;
}

const JoinPredicate& PlanNode::predicate() const {
  return (crossing ? *crossing : kNoCrossing).predicate;
}

const AggregateVector& PlanNode::groupjoin_aggs() const {
  return (crossing ? *crossing : kNoCrossing).groupjoin_aggs;
}

const std::vector<SymbolicDefault>& PlanNode::left_defaults() const {
  return left_defaults_ ? *left_defaults_ : kNoDefaults;
}

const std::vector<SymbolicDefault>& PlanNode::right_defaults() const {
  return right_defaults_ ? *right_defaults_ : kNoDefaults;
}

const std::vector<ExecAggregate>& PlanNode::group_aggs() const {
  return group_aggs_ ? *group_aggs_ : kNoAggs;
}

const std::vector<MapExpr>& PlanNode::final_map() const {
  return (final_map_ ? *final_map_ : kNoFinalMap).exprs;
}

const std::vector<std::string>& PlanNode::output_columns() const {
  return (final_map_ ? *final_map_ : kNoFinalMap).output_columns;
}

const KeySet& PlanNode::keys() const { return keys_ ? *keys_ : kNoKeys; }

const FdSet& PlanNode::fds() const { return fds_ ? *fds_ : kNoFds; }

const PlanAggState& PlanNode::agg_state() const {
  return agg_state_ ? *agg_state_ : kNoAggState;
}

std::string PlanNode::ToString(const Catalog& catalog, int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string s = pad + PlanOpName(op);
  if (op == PlanOp::kScan) {
    s += " " + catalog.relation(relation).name;
  } else if (op == PlanOp::kGroup || op == PlanOp::kFinalGroup) {
    s += " by {" + catalog.AttrSetToString(group_by) + "}";
  } else if (IsBinary() && !predicate().empty()) {
    s += " [" + predicate().ToString(catalog) + "]";
  }
  s += StrFormat("  (card=%.6g cost=%.6g)", cardinality, cost);
  s += "\n";
  if (left) s += left->ToString(catalog, indent + 1);
  if (right) s += right->ToString(catalog, indent + 1);
  return s;
}

int PlanNode::NodeCount() const {
  int n = 1;
  if (left) n += left->NodeCount();
  if (right) n += right->NodeCount();
  return n;
}

int PlanNode::PushedGroupingCount() const {
  int n = op == PlanOp::kGroup ? 1 : 0;
  if (left) n += left->PushedGroupingCount();
  if (right) n += right->PushedGroupingCount();
  return n;
}

const KeySet* PlanArena::InternKeys(const KeySet& keys) {
  if ((interned_keys_ + 1) * 2 > key_index_.size()) GrowKeyIndex();
  const uint64_t hash = keys.Hash();
  const size_t mask = key_index_.size() - 1;
  for (size_t at = hash & mask;; at = (at + 1) & mask) {
    KeySlot& slot = key_index_[at];
    if (slot.keys == nullptr) {
      slot.hash = hash;
      slot.keys = arena_.New<KeySet>(keys);
      ++interned_keys_;
      return slot.keys;
    }
    if (slot.hash == hash && *slot.keys == keys) return slot.keys;
  }
}

void PlanArena::GrowKeyIndex() {
  // A DP run interns a few dozen sets; 64 slots hold 32 before the first
  // doubling.
  constexpr size_t kMinSlots = 64;
  std::vector<KeySlot> old = std::move(key_index_);
  key_index_.assign(std::max(old.size() * 2, kMinSlots), KeySlot{});
  const size_t mask = key_index_.size() - 1;
  for (const KeySlot& slot : old) {
    if (slot.keys == nullptr) continue;
    size_t at = slot.hash & mask;
    while (key_index_[at].keys != nullptr) at = (at + 1) & mask;
    key_index_[at] = slot;
  }
}

}  // namespace eadp
