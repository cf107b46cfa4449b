// The DP table: plan lists per relation set, with insertion policies.
//
// The basic generator keeps a single plan per plan class (Fig. 5); the
// complete generators keep a list (Fig. 9), optionally filtered by the
// optimality-preserving dominance pruning of Fig. 13: a tree T2 is
// discarded if some T1 has Cost(T1) <= Cost(T2), |T1| <= |T2| and
// FD+(T1) ⊇ FD+(T2) — the FD condition implemented, as the paper suggests,
// by comparing candidate key sets (plus duplicate-freeness).
//
// Storage contract: the table owns its storage and it dies with the
// table — it never lives in the run's PlanArena, which a cached result
// keeps alive. Plan classes are records in one vector, found through a
// flat open-addressing index over their 128-bit relation sets (mixed, not
// identity-hashed — consecutive subset patterns cluster badly otherwise).
// The index starts small and doubles with the classes actually created,
// so a bounded re-plan that fills a few dozen classes pays for a few
// dozen slots, not for every connected subgraph of the query. Each
// class's columns are carved from one table-owned arena and grow by
// doubling, so creating a class or adding a plan costs no heap
// allocation.
//
// Plans(S) returns a span into class S's own columns. It stays valid
// until S itself is inserted into: insertions into other classes, new
// classes and index growth never move a class's columns. Generators hold
// the source classes' spans of a csg-cmp-pair while inserting the
// produced trees into the (strictly larger) target class. dp_table_test
// pins this contract.
//
// Layout: each class keeps, next to its plan-pointer column, structure-of-
// arrays mirrors of exactly the properties the dominance test reads (cost,
// the two chained cardinalities, interned key-set pointer, duplicate-
// freeness). The pruning scans of InsertPruned and the Best() cost scan
// then walk small contiguous columns instead of dereferencing ~144-byte
// PlanNodes — in the EA-Prune steady state the candidate is compared
// against every incumbent of its class twice per insertion attempt, which
// made the pointer-chasing loads the hottest path of the whole exact DP
// (bench_fig16_runtime profiles). The numeric part of the comparison is
// evaluated branch-free (see InsertPruned); the mirrors are maintained by
// every insertion policy so the class is always consistent.
//
// Thread-compatibility: a DpTable is not internally synchronized. The
// intra-query parallel DP (plangen/parallel_dp.h) runs one *shard* table
// per worker for writes while all workers read a shared merged table of
// completed smaller subset sizes; AdoptClassesFrom copies a shard's classes
// into the merged table's storage at the subset-size barrier and recycles
// the shard's.

#ifndef EADP_PLANGEN_DP_TABLE_H_
#define EADP_PLANGEN_DP_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/bitset.h"
#include "plangen/plan.h"

namespace eadp {

/// True iff `a` dominates `b` (same relation set assumed): a is no more
/// expensive, no larger, and retains at least b's key knowledge and
/// duplicate-freeness (Def. 4, with keys for FD+). The cardinality and key
/// criteria can be disabled for ablation experiments; with
/// `use_full_fds`, the unweakened FD-closure comparison of Def. 4 is
/// applied on top (requires BuilderOptions::track_fds).
bool Dominates(const PlanNode& a, const PlanNode& b, bool use_cardinality,
               bool use_keys, bool use_full_fds = false);
inline bool Dominates(const PlanNode& a, const PlanNode& b) {
  return Dominates(a, b, /*use_cardinality=*/true, /*use_keys=*/true);
}

class DpTable {
 public:
  /// Configures the dominance test used by InsertPruned (ablations).
  void SetDominanceOptions(bool use_cardinality, bool use_keys,
                           bool use_full_fds = false) {
    use_cardinality_ = use_cardinality;
    use_keys_ = use_keys;
    use_full_fds_ = use_full_fds;
  }

  DpTable();

  /// Pre-sizes the index and the class records for `expected_classes`
  /// classes, for a caller that knows the count (kIdp's subproblems).
  void Reserve(size_t expected_classes);

  /// Plans stored for `rels` (empty if none). The span stays valid until
  /// `rels` itself is inserted into (see file comment).
  std::span<const PlanPtr> Plans(RelSet rels) const;

  /// True if at least one plan is stored for `rels`.
  bool Has(RelSet rels) const { return !Plans(rels).empty(); }

  /// The single best (cheapest) plan for `rels`, or nullptr.
  PlanPtr Best(RelSet rels) const;

  /// Keeps only the cheapest plan per class (BuildPlans / Fig. 5 policy).
  /// Returns true if `plan` was kept.
  bool InsertIfCheaper(RelSet rels, PlanPtr plan);

  /// Appends unconditionally (BuildPlansAll / Fig. 9 policy).
  void Append(RelSet rels, PlanPtr plan);

  /// PruneDominatedPlans of Fig. 13. Returns true if `plan` was kept.
  bool InsertPruned(RelSet rels, PlanPtr plan);

  /// Clears the class and stores exactly `plan` (H2's replacement step).
  void ReplaceSingle(RelSet rels, PlanPtr plan);

  /// Copies every class of `shard` into this table's storage and folds the
  /// shard's pruning counters in; `shard` is left empty with its storage
  /// recycled (its dominance options are untouched, so a worker can keep
  /// reusing it across barriers). The parallel DP's subset-size merge:
  /// shard classes must be disjoint from this table's (each class has
  /// exactly one owning worker per level — asserted), so "merging" copies
  /// each class's columns verbatim, never re-prunes, which is what keeps
  /// parallel class contents bit-identical to the sequential run's.
  void AdoptClassesFrom(DpTable& shard);

  /// Total number of plans across all classes.
  size_t TotalPlans() const;
  size_t NumClasses() const { return classes_.size(); }

  /// Candidates rejected by the dominance test (InsertPruned returning
  /// false) and incumbents evicted by a dominating newcomer, over the
  /// table's lifetime (plus anything adopted from shards).
  uint64_t pruned_candidates() const { return pruned_candidates_; }
  uint64_t pruned_existing() const { return pruned_existing_; }

 private:
  /// One plan class: the plan column plus SoA mirrors of the dominance-
  /// scanned properties (see file comment), `size` entries each, carved
  /// from `storage_` with room for `capacity`.
  struct PlanClass {
    RelSet rels;
    uint32_t size = 0;
    uint32_t capacity = 0;
    PlanPtr* plans = nullptr;
    double* cost = nullptr;
    double* cardinality = nullptr;
    double* raw_cardinality = nullptr;
    const KeySet** keys = nullptr;
    uint8_t* duplicate_free = nullptr;
  };

  /// The class for `rels`, or nullptr.
  const PlanClass* Find(RelSet rels) const;

  /// The class for `rels`, created empty on demand; its first plan carves
  /// room for kInitialClassCapacity (the complete generators typically
  /// keep a handful per class).
  PlanClass& ClassOf(RelSet rels);

  /// Points `c`'s columns at fresh storage for `capacity` plans, copying
  /// its current entries.
  void Allocate(PlanClass& c, uint32_t capacity);
  void PushBack(PlanClass& c, PlanPtr p);
  static void ReplaceAt(PlanClass& c, size_t i, PlanPtr p);
  /// Entry `from` moves to slot `to` in every column.
  static void MoveEntry(PlanClass& c, size_t from, size_t to);

  /// Doubles the index (or creates it) and re-files every class.
  void GrowIndex(size_t min_slots);

  /// The ablation-configurable slow path of InsertPruned (any dominance
  /// option off-default); semantics identical to the fast path.
  bool InsertPrunedGeneric(PlanClass& c, PlanPtr plan);

  static constexpr size_t kFirstStorageBytes = 4096;
  static constexpr size_t kMinIndexSlots = 32;
  static constexpr uint32_t kInitialClassCapacity = 4;

  /// Classes in creation order.
  std::vector<PlanClass> classes_;
  /// Open-addressing index, a power of two in size (or empty): 0 is a
  /// free slot, i + 1 names classes_[i]. Kept at most half full.
  std::vector<uint32_t> index_;
  /// Every class's columns.
  Arena storage_;
  bool use_cardinality_ = true;
  bool use_keys_ = true;
  bool use_full_fds_ = false;
  uint64_t pruned_candidates_ = 0;
  uint64_t pruned_existing_ = 0;
};

}  // namespace eadp

#endif  // EADP_PLANGEN_DP_TABLE_H_
