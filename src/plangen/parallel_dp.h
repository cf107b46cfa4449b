// Intra-query parallel dynamic programming: one exact enumeration spread
// across DP workers, cost-identical to the sequential run by construction.
//
// Schedule (DESIGN.md §12): csg-cmp-pairs are materialized bucketed by the
// subset size |S1 ∪ S2| (dphyp_enumerator.h CollectCsgCmpPairsBySize).
// Levels run in ascending order with a barrier between them; within a
// level, every pair is processed by the worker *owning its target class*
// (owner = Hash(S1 ∪ S2) mod W). Each worker builds plans with a private
// PlanBuilder into a private arena and inserts into a private DpTable
// shard; source classes are read from the shared merged table, which holds
// exactly the completed smaller levels. At the barrier, every shard's
// classes move wholesale into the merged table (DpTable::AdoptClassesFrom).
//
// Why this is cost-identical to sequential at any worker count:
//   * DPhyp emits both components of a pair after all of their own
//     sub-pairs, so every source class of a level-k pair lives in a level
//     < k — complete and immutable once level k starts;
//   * the only level-k class a pair touches (kH2 also *reads* its target
//     via Best(S)) is its own union, and all pairs sharing a union go to
//     one worker, which processes them in emission order — so the
//     insertion sequence each class sees is exactly the subsequence of the
//     sequential emission order targeting it;
//   * insertion policies are deterministic functions of (class contents,
//     candidate), and plan construction is a deterministic function of the
//     source plans. By induction over levels — identical singleton scans
//     at the base — every class ends with the same costs/cardinalities/
//     keys sequence as sequentially, hence the same best plan. Worker
//     builders build candidates only; the returned plan is materialized
//     (and its generated columns named) once by the primary builder, so
//     parallel and sequential plans encode to identical bytes.
//
// Memory: worker arenas are adopted as siblings of the primary run arena
// (PlanArena::AdoptSibling), so the single shared_ptr handed to
// OptimizeResult keeps cross-arena plans alive unchanged.
//
// The exhaustive generator (plangen.cc) is the scheduler's one driver,
// over the DPhyp levels of the whole query. kIdp's subproblems run their
// split loop sequentially (large_query.h): a default-sized block is
// microsecond-scale work a fan-out only slows down.

#ifndef EADP_PLANGEN_PARALLEL_DP_H_
#define EADP_PLANGEN_PARALLEL_DP_H_

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "hypergraph/dphyp_enumerator.h"
#include "plangen/dp_combine.h"
#include "plangen/dp_table.h"
#include "plangen/op_trees.h"
#include "plangen/plangen.h"

namespace eadp {

struct ParallelDpStats {
  uint64_t worker_plans_built = 0;  ///< plan nodes built by worker builders
  double barrier_wait_ms = 0;       ///< caller blocked on peers, summed
};

/// One parallel DP execution over one merged table. One-shot: construct,
/// RunLevels once, read stats, destroy. On return from RunLevels, `dp`
/// holds every class the enumeration produced and the worker arenas have
/// been adopted into the primary builder's arena.
class ParallelDp {
 public:
  /// All pointers are borrowed. `dp` is the merged table (singleton scans
  /// must already be present); `primary` is the run's main builder, whose
  /// arena adopts the worker arenas. `workers` >= 2 run on `pool` (not
  /// null; worker 0 is the calling thread); one worker is the sequential
  /// DP loop, which the generator runs itself. `cost_bound` goes to every
  /// worker's combiner (dp_combine.h).
  ParallelDp(const Query* query, const ConflictDetector* conflicts,
             const OptimizerOptions& options, PlanBuilder* primary,
             DpTable* dp, int workers, ThreadPool* pool,
             double cost_bound = kNoCostBound);

  /// Processes `levels` (index = |S1 ∪ S2|) in ascending order with a
  /// shard merge after each level.
  void RunLevels(const std::vector<std::vector<CcpPair>>& levels);

  const ParallelDpStats& stats() const { return stats_; }

 private:
  struct Worker {
    Worker(const Query* query, const ConflictDetector* conflicts,
           const OptimizerOptions& options, const DpTable* read_dp,
           double cost_bound);

    PlanBuilder builder;
    DpTable shard;
    CcpCombiner combiner;
  };

  PlanBuilder* primary_;
  DpTable* dp_;
  ThreadPool* pool_;
  std::vector<std::unique_ptr<Worker>> workers_;
  ParallelDpStats stats_;
  bool ran_ = false;
};

}  // namespace eadp

#endif  // EADP_PLANGEN_PARALLEL_DP_H_
