// Key inference κ and the NeedsGrouping test (paper Sec. 2.3 and Fig. 7).
//
// Keys of base relations come from the schema; keys of intermediate results
// follow the per-operator rules of Sec. 2.3. A key set is kept minimal
// (no key a superset of another) and bounded in size. Duplicate-freeness is
// tracked alongside: a grouping result is duplicate-free, base relations
// are duplicate-free iff they declare a key (SQL remark in Sec. 3.2), and
// binary operators preserve duplicate-freeness of the surviving sides.
//
// KeySet is the fixed-capacity value type for these bounded minimal key
// sets: it lives on the stack during inference (no heap traffic in the DP
// hot path) and is interned into the PlanArena when attached to a plan
// node, so identical key sets share one pointer and dominance checks can
// compare pointers before contents (see plan.h / docs/DESIGN.md §6).

#ifndef EADP_PLANGEN_KEYS_H_
#define EADP_PLANGEN_KEYS_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <span>

#include "algebra/predicate.h"
#include "catalog/catalog.h"
#include "common/bitset.h"

namespace eadp {

struct PlanNode;
enum class PlanOp;

/// Upper bound on tracked candidate keys per plan (cross-combinations are
/// truncated beyond this; fewer keys is always safe, it only makes
/// NeedsGrouping more conservative).
inline constexpr size_t kMaxKeysPerPlan = 8;

/// A minimal candidate-key set of at most kMaxKeysPerPlan keys, stored
/// inline and canonically ordered (sorted by word value): Insert() keeps
/// both the minimality invariant (no key a superset of another) and the
/// ordering, so equal key sets have equal representations regardless of
/// insertion order — which is what lets the arena interner dedup them and
/// the dominance test compare pointers. (Truncation at capacity can still
/// make near-equal sets differ; a missed dedup costs a few bytes and a
/// content comparison, never correctness.)
class KeySet {
 public:
  KeySet() = default;
  KeySet(std::initializer_list<AttrSet> keys) {
    for (AttrSet k : keys) Insert(k);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == kMaxKeysPerPlan; }
  AttrSet operator[](size_t i) const {
    assert(i < size_);
    return keys_[i];
  }
  const AttrSet* data() const { return keys_.data(); }
  const AttrSet* begin() const { return keys_.data(); }
  const AttrSet* end() const { return keys_.data() + size_; }

  /// Minimal-key insert: drops `key` if a subset is already present,
  /// removes present supersets of `key`. No-op when full.
  void Insert(AttrSet key);

  /// Content hash (used by the PlanArena interner).
  uint64_t Hash() const;

  friend bool operator==(const KeySet& a, const KeySet& b) {
    if (a.size_ != b.size_) return false;
    for (size_t i = 0; i < a.size_; ++i) {
      if (a.keys_[i] != b.keys_[i]) return false;
    }
    return true;
  }

 private:
  std::array<AttrSet, kMaxKeysPerPlan> keys_{};
  uint8_t size_ = 0;
};

/// Result of key inference for one operator application. Lives on the
/// stack; the builder interns `keys` when attaching it to a plan node.
struct KeyProperties {
  KeySet keys;
  bool duplicate_free = false;
  /// The child's interned key set when `keys` is that child's set passed
  /// through unchanged (semi-, anti- and groupjoin, a join on a key): the
  /// builder reuses the pointer instead of interning an equal set again.
  const KeySet* passthrough = nullptr;
};

/// True iff some key in `keys` is a subset of `attrs` (i.e. `attrs` is a
/// superkey). Accepts any contiguous key range (KeySet, std::vector).
bool HasKeySubset(std::span<const AttrSet> keys, AttrSet attrs);

/// True iff `a`'s key knowledge subsumes `b`'s: every key of `b` has a
/// subset among `a`'s keys. The semantic twin of the span-based
/// KeysDominate (catalog/functional_dependency.h), specialized for the
/// bounded inline KeySet and written for the dominance-pruning hot loop:
/// the inner subset scan accumulates bitwise instead of branching, so the
/// data-dependent (and for real key sets essentially random) per-key
/// subset outcomes never become branch mispredictions; only the
/// loop-carried "some key of b is uncovered" exit remains a branch, and
/// that one is taken at most once. dp_table_test pins agreement with the
/// span implementation on exhaustive small universes.
inline bool KeySetDominates(const KeySet& a, const KeySet& b) {
  const size_t na = a.size();
  const size_t nb = b.size();
  const AttrSet* ka = a.data();
  const AttrSet* kb = b.data();
  for (size_t j = 0; j < nb; ++j) {
    AttrSet key = kb[j];
    unsigned implied = 0;
    for (size_t i = 0; i < na; ++i) {
      implied |= static_cast<unsigned>(ka[i].IsSubsetOf(key));
    }
    if (implied == 0) return false;
  }
  return true;
}

/// κ for a binary operator (paper Sec. 2.3). `plan_op` is the plan node
/// kind; `pred` the combined predicate applied at the node.
KeyProperties ComputeJoinKeys(PlanOp plan_op, const Catalog& catalog,
                              const PlanNode& left, const PlanNode& right,
                              const JoinPredicate& pred);

/// κ for Γ_{group_by}: group_by becomes a key; child keys that survive the
/// projection onto group_by remain keys. The result is duplicate-free.
KeyProperties ComputeGroupingKeys(const PlanNode& child, AttrSet group_by);

/// NeedsGrouping(G, T) of Fig. 7: false iff some key of T is contained in G
/// and T is duplicate-free.
bool NeedsGrouping(AttrSet g, const PlanNode& t);

}  // namespace eadp

#endif  // EADP_PLANGEN_KEYS_H_
