#include "plangen/dp_table.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "catalog/functional_dependency.h"
#include "plangen/keys.h"
#include "plangen/plan_fds.h"

namespace eadp {

namespace {

/// Null key-set pointers (no keys known) read as the empty set, mirroring
/// PlanNode::keys().
const KeySet kNoKeys;
inline const KeySet& KeysOrEmpty(const KeySet* k) {
  return k != nullptr ? *k : kNoKeys;
}

}  // namespace

bool Dominates(const PlanNode& a, const PlanNode& b, bool use_cardinality,
               bool use_keys, bool use_full_fds) {
  if (a.cost > b.cost) return false;
  if (use_cardinality && a.cardinality > b.cardinality) return false;
  // The raw (uncapped) estimate feeds downstream inner-join chains, so it
  // is future-relevant state exactly like the cardinality.
  if (use_cardinality && a.raw_cardinality > b.raw_cardinality) return false;
  if (use_keys) {
    if (!a.duplicate_free && b.duplicate_free) return false;
    // Interned key sets: same pointer means equal contents, so only
    // distinct pointers pay for the pairwise subset comparison.
    if (a.keys_ != b.keys_ && !KeySetDominates(a.keys(), b.keys())) {
      return false;
    }
  }
  if (use_full_fds && !FdsDominate(a.fds(), b.fds())) return false;
  return true;
}

DpTable::DpTable() : storage_(kFirstStorageBytes) {}

void DpTable::Reserve(size_t expected_classes) {
  if (expected_classes * 2 > index_.size()) GrowIndex(expected_classes * 2);
}

void DpTable::GrowIndex(size_t min_slots) {
  size_t slots = std::max<size_t>(index_.size() * 2, kMinIndexSlots);
  while (slots < min_slots) slots *= 2;
  index_.assign(slots, 0);
  // The records grow in step with the index, so creating a class never
  // reallocates them between two index growths.
  classes_.reserve(slots / 2);
  const size_t mask = slots - 1;
  for (size_t i = 0; i < classes_.size(); ++i) {
    size_t at = classes_[i].rels.Hash() & mask;
    while (index_[at] != 0) at = (at + 1) & mask;
    index_[at] = static_cast<uint32_t>(i + 1);
  }
}

const DpTable::PlanClass* DpTable::Find(RelSet rels) const {
  if (index_.empty()) return nullptr;
  const size_t mask = index_.size() - 1;
  for (size_t at = rels.Hash() & mask;; at = (at + 1) & mask) {
    uint32_t slot = index_[at];
    if (slot == 0) return nullptr;
    const PlanClass& c = classes_[slot - 1];
    if (c.rels == rels) return &c;
  }
}

DpTable::PlanClass& DpTable::ClassOf(RelSet rels) {
  if ((classes_.size() + 1) * 2 > index_.size()) GrowIndex(0);
  const size_t mask = index_.size() - 1;
  size_t at = rels.Hash() & mask;
  for (; index_[at] != 0; at = (at + 1) & mask) {
    PlanClass& c = classes_[index_[at] - 1];
    if (c.rels == rels) return c;
  }
  PlanClass& c = classes_.emplace_back();
  c.rels = rels;
  index_[at] = static_cast<uint32_t>(classes_.size());
  return c;
}

void DpTable::Allocate(PlanClass& c, uint32_t capacity) {
  // One carve per class and capacity: the five 8-byte columns, then the
  // byte column. The old columns stay in the arena until the table dies.
  const size_t cap = capacity;
  char* mem = static_cast<char*>(storage_.AllocateBytes(
      cap * (4 * sizeof(double) + sizeof(PlanPtr)) + cap, alignof(double)));
  auto* plans = reinterpret_cast<PlanPtr*>(mem);
  auto* cost = reinterpret_cast<double*>(plans + cap);
  auto* card = cost + cap;
  auto* raw = card + cap;
  auto* keys = reinterpret_cast<const KeySet**>(raw + cap);
  auto* dup = reinterpret_cast<uint8_t*>(keys + cap);
  const size_t n = c.size;
  if (n > 0) {
    std::copy_n(c.plans, n, plans);
    std::copy_n(c.cost, n, cost);
    std::copy_n(c.cardinality, n, card);
    std::copy_n(c.raw_cardinality, n, raw);
    std::copy_n(c.keys, n, keys);
    std::copy_n(c.duplicate_free, n, dup);
  }
  c.plans = plans;
  c.cost = cost;
  c.cardinality = card;
  c.raw_cardinality = raw;
  c.keys = keys;
  c.duplicate_free = dup;
  c.capacity = capacity;
}

void DpTable::PushBack(PlanClass& c, PlanPtr p) {
  if (c.size == c.capacity) {
    Allocate(c, c.capacity == 0 ? kInitialClassCapacity : c.capacity * 2);
  }
  ReplaceAt(c, c.size++, p);
}

void DpTable::ReplaceAt(PlanClass& c, size_t i, PlanPtr p) {
  c.plans[i] = p;
  c.cost[i] = p->cost;
  c.cardinality[i] = p->cardinality;
  c.raw_cardinality[i] = p->raw_cardinality;
  c.keys[i] = p->keys_;
  c.duplicate_free[i] = p->duplicate_free ? 1 : 0;
}

void DpTable::MoveEntry(PlanClass& c, size_t from, size_t to) {
  c.plans[to] = c.plans[from];
  c.cost[to] = c.cost[from];
  c.cardinality[to] = c.cardinality[from];
  c.raw_cardinality[to] = c.raw_cardinality[from];
  c.keys[to] = c.keys[from];
  c.duplicate_free[to] = c.duplicate_free[from];
}

std::span<const PlanPtr> DpTable::Plans(RelSet rels) const {
  const PlanClass* c = Find(rels);
  if (c == nullptr) return {};
  return {c->plans, c->size};
}

PlanPtr DpTable::Best(RelSet rels) const {
  const PlanClass* found = Find(rels);
  if (found == nullptr) return nullptr;
  const PlanClass& c = *found;
  size_t n = c.size;
  if (n == 0) return nullptr;
  // Cost-column scan: index arithmetic over one contiguous array, the
  // plan pointer is only fetched once at the end.
  size_t best = 0;
  for (size_t i = 1; i < n; ++i) {
    if (c.cost[i] < c.cost[best]) best = i;
  }
  return c.plans[best];
}

bool DpTable::InsertIfCheaper(RelSet rels, PlanPtr plan) {
  PlanClass& c = ClassOf(rels);
  if (c.size == 0) {
    PushBack(c, plan);
    return true;
  }
  if (plan->cost < c.cost[0]) {
    ReplaceAt(c, 0, plan);
    return true;
  }
  return false;
}

void DpTable::Append(RelSet rels, PlanPtr plan) {
  PushBack(ClassOf(rels), plan);
}

bool DpTable::InsertPruned(RelSet rels, PlanPtr plan) {
  PlanClass& c = ClassOf(rels);
  if (use_full_fds_ || !use_cardinality_ || !use_keys_) {
    return InsertPrunedGeneric(c, plan);
  }

  // Hot path (default dominance test). Both scans walk the SoA columns;
  // the numeric three-way comparison is evaluated branch-free — `&` over
  // setcc results, no data-dependent jumps — because whether one plan's
  // cost/cardinality triple dominates another's is essentially a coin
  // flip to the branch predictor. Only candidates passing the numeric
  // screen reach the key comparison (same-pointer fast path first: the
  // per-arena interner makes equal key sets pointer-equal). Estimates are
  // never NaN (the estimator clamps to kMaxCardinality and asserts, see
  // DESIGN.md §3), so `<=` here is the exact negation of the `>` early
  // exits in Dominates().
  const double p_cost = plan->cost;
  const double p_card = plan->cardinality;
  const double p_raw = plan->raw_cardinality;
  const KeySet* p_keys = plan->keys_;
  const unsigned p_dup = plan->duplicate_free ? 1 : 0;
  const size_t n = c.size;

  // Pass 1: reject the candidate if some incumbent dominates it.
  for (size_t i = 0; i < n; ++i) {
    unsigned numeric = static_cast<unsigned>(c.cost[i] <= p_cost) &
                       static_cast<unsigned>(c.cardinality[i] <= p_card) &
                       static_cast<unsigned>(c.raw_cardinality[i] <= p_raw);
    // !(!a.dup && b.dup): the incumbent may only lack duplicate-freeness
    // the candidate lacks too.
    unsigned dup_ok = static_cast<unsigned>(c.duplicate_free[i]) | (p_dup ^ 1);
    if ((numeric & dup_ok) != 0) {
      const KeySet* i_keys = c.keys[i];
      if (i_keys == p_keys ||
          KeySetDominates(KeysOrEmpty(i_keys), KeysOrEmpty(p_keys))) {
        ++pruned_candidates_;
        return false;
      }
    }
  }

  // Pass 2: evict incumbents the candidate dominates, compacting all
  // columns in lockstep.
  size_t w = 0;
  for (size_t i = 0; i < n; ++i) {
    unsigned numeric = static_cast<unsigned>(p_cost <= c.cost[i]) &
                       static_cast<unsigned>(p_card <= c.cardinality[i]) &
                       static_cast<unsigned>(p_raw <= c.raw_cardinality[i]);
    unsigned dup_ok = p_dup | (c.duplicate_free[i] ^ 1u);
    bool evict = false;
    if ((numeric & dup_ok) != 0) {
      const KeySet* i_keys = c.keys[i];
      evict = p_keys == i_keys ||
              KeySetDominates(KeysOrEmpty(p_keys), KeysOrEmpty(i_keys));
    }
    if (!evict) {
      if (w != i) MoveEntry(c, i, w);
      ++w;
    }
  }
  pruned_existing_ += n - w;
  c.size = static_cast<uint32_t>(w);
  PushBack(c, plan);
  return true;
}

bool DpTable::InsertPrunedGeneric(PlanClass& c, PlanPtr plan) {
  const size_t n = c.size;
  for (size_t i = 0; i < n; ++i) {
    if (Dominates(*c.plans[i], *plan, use_cardinality_, use_keys_,
                  use_full_fds_)) {
      ++pruned_candidates_;
      return false;
    }
  }
  size_t w = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!Dominates(*plan, *c.plans[i], use_cardinality_, use_keys_,
                   use_full_fds_)) {
      if (w != i) MoveEntry(c, i, w);
      ++w;
    }
  }
  pruned_existing_ += n - w;
  c.size = static_cast<uint32_t>(w);
  PushBack(c, plan);
  return true;
}

void DpTable::ReplaceSingle(RelSet rels, PlanPtr plan) {
  PlanClass& c = ClassOf(rels);
  c.size = 0;
  PushBack(c, plan);
}

void DpTable::AdoptClassesFrom(DpTable& shard) {
  for (const PlanClass& from : shard.classes_) {
    assert(Find(from.rels) == nullptr &&
           "shard classes must be disjoint from the merged table: every "
           "class has exactly one owning worker per subset-size level");
    // Take the shard's columns as they are, then copy them into this
    // table's storage: the shard's is recycled below.
    PlanClass& c = ClassOf(from.rels);
    c = from;
    Allocate(c, std::max<uint32_t>(from.size, 1));
  }
  shard.classes_.clear();
  std::fill(shard.index_.begin(), shard.index_.end(), 0);
  shard.storage_.Reset();
  pruned_candidates_ += shard.pruned_candidates_;
  pruned_existing_ += shard.pruned_existing_;
  shard.pruned_candidates_ = 0;
  shard.pruned_existing_ = 0;
}

size_t DpTable::TotalPlans() const {
  size_t n = 0;
  for (const PlanClass& c : classes_) n += c.size;
  return n;
}

}  // namespace eadp
