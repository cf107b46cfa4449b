#include "plangen/keys.h"

#include "common/rng.h"
#include "plangen/plan.h"

namespace eadp {

void KeySet::Insert(AttrSet key) {
  // Minimal-key invariant: drop the insert if a subset is present, remove
  // supersets of the newcomer.
  for (size_t i = 0; i < size_; ++i) {
    if (keys_[i].IsSubsetOf(key)) return;
  }
  size_t w = 0;
  for (size_t i = 0; i < size_; ++i) {
    if (!key.IsSubsetOf(keys_[i])) keys_[w++] = keys_[i];
  }
  size_ = static_cast<uint8_t>(w);
  if (size_ == kMaxKeysPerPlan) return;
  // Keep the storage sorted by word value: equal key *sets* then have
  // equal representations regardless of insertion order, so the arena
  // interner dedups them and the dominance pointer fast path fires.
  size_t pos = size_;
  while (pos > 0 && key < keys_[pos - 1]) {
    keys_[pos] = keys_[pos - 1];
    --pos;
  }
  keys_[pos] = key;
  ++size_;
}

uint64_t KeySet::Hash() const {
  // Mixed fold over the (canonically ordered) key words; collisions are
  // resolved by content comparison in the interner.
  uint64_t h = size_;
  for (size_t i = 0; i < size_; ++i) {
    h = Mix64(keys_[i].Hash() + h);
  }
  return h;
}

bool HasKeySubset(std::span<const AttrSet> keys, AttrSet attrs) {
  for (AttrSet k : keys) {
    if (k.IsSubsetOf(attrs)) return true;
  }
  return false;
}

namespace {

/// Every pair of keys from the two sides forms a key (Sec. 2.3, general
/// case). Truncated at kMaxKeysPerPlan.
KeySet PairwiseKeyUnions(const KeySet& a, const KeySet& b) {
  KeySet out;
  for (AttrSet ka : a) {
    for (AttrSet kb : b) {
      out.Insert(ka.Union(kb));
      if (out.full()) return out;
    }
  }
  return out;
}

KeySet MergedKeys(const KeySet& a, const KeySet& b) {
  KeySet out = a;
  for (AttrSet kb : b) {
    out.Insert(kb);
    if (out.full()) break;
  }
  return out;
}

}  // namespace

KeyProperties ComputeJoinKeys(PlanOp plan_op, const PlanNode& left,
                              const PlanNode& right, AttrSet left_attrs,
                              AttrSet right_attrs) {
  KeyProperties out;

  // Semijoin, antijoin and groupjoin: κ(e1 ◦ e2) = κ(e1) (Sec. 2.3.4).
  if (plan_op == PlanOp::kLeftSemi || plan_op == PlanOp::kLeftAnti ||
      plan_op == PlanOp::kGroupJoin) {
    out.keys = left.keys();
    out.passthrough = left.keys_;
    out.duplicate_free = left.duplicate_free;
    return out;
  }

  bool j1_is_key =
      left.duplicate_free && HasKeySubset(left.keys(), left_attrs);
  bool j2_is_key =
      right.duplicate_free && HasKeySubset(right.keys(), right_attrs);

  out.duplicate_free = left.duplicate_free && right.duplicate_free;

  switch (plan_op) {
    case PlanOp::kJoin:
      // A1 key of e1 -> every e2 row joins at most one e1 row, so e2's keys
      // stay unique in the result, and vice versa (Sec. 2.3.1).
      if (j1_is_key && j2_is_key) {
        out.keys = MergedKeys(left.keys(), right.keys());
      } else if (j1_is_key) {
        out.keys = right.keys();
        out.passthrough = right.keys_;
      } else if (j2_is_key) {
        out.keys = left.keys();
        out.passthrough = left.keys_;
      } else {
        out.keys = PairwiseKeyUnions(left.keys(), right.keys());
      }
      break;
    case PlanOp::kLeftOuter:
      // A2 key of e2 -> κ(e1) (Sec. 2.3.2); else pairwise unions.
      if (j2_is_key) {
        out.keys = left.keys();
        out.passthrough = left.keys_;
      } else {
        out.keys = PairwiseKeyUnions(left.keys(), right.keys());
      }
      break;
    case PlanOp::kFullOuter:
      out.keys = PairwiseKeyUnions(left.keys(), right.keys());
      break;
    default:
      break;
  }
  return out;
}

KeyProperties ComputeGroupingKeys(const PlanNode& child, AttrSet group_by) {
  KeyProperties out;
  out.duplicate_free = true;
  for (AttrSet k : child.keys()) {
    // Keys fully contained in the grouping attributes remain keys: a key
    // value identifies its input row and therefore its group.
    if (k.IsSubsetOf(group_by)) out.keys.Insert(k);
  }
  out.keys.Insert(group_by);
  return out;
}

bool NeedsGrouping(AttrSet g, const PlanNode& t) {
  return !(t.duplicate_free && HasKeySubset(t.keys(), g));
}

}  // namespace eadp
