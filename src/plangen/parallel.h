// The parallel optimizer subsystem: batched multi-query throughput and the
// concurrent kGoo/kIdp race, on top of common/thread_pool.h.
//
// Concurrency model (DESIGN.md §9): the unit of parallelism is one whole
// optimization run. Every run owns a private PlanArena and builds all of
// its state (ConflictDetector, PlanBuilder, DpTable) from a const Query&,
// so concurrent runs share nothing mutable by construction — the hot path
// takes no locks, and the only synchronization anywhere is the pool's task
// queue and the futures' fan-in.
//
// Determinism is the hard requirement: for every query, the parallel entry
// points produce plans cost-identical to their sequential counterparts.
// OptimizeBatch runs the same per-query facade as a sequential loop would
// (each task is independent and internally deterministic), and the
// concurrent race funnels its two results through the same
// PickAdaptiveWinner policy as the sequential facade — the winner is
// decided by comparing both completed plans, never by completion order.
// parallel_test pins both differentially, under repetition.

#ifndef EADP_PLANGEN_PARALLEL_H_
#define EADP_PLANGEN_PARALLEL_H_

#include <span>
#include <vector>

#include "algebra/query.h"
#include "common/thread_pool.h"
#include "plangen/plangen.h"

namespace eadp {

/// Aggregate serving statistics of one OptimizeBatch call. Latencies are
/// per-query wall-clock optimization times (exact-DP or adaptive race,
/// whatever the facade ran); percentiles use the nearest-rank method.
struct BatchStats {
  int num_queries = 0;
  int num_threads = 1;      ///< pool size actually used (1 == sequential)
  double wall_ms = 0;       ///< end-to-end batch wall clock
  double queries_per_second = 0;  ///< num_queries / wall seconds
  double p50_ms = 0;        ///< median per-query optimization latency
  double p95_ms = 0;        ///< 95th-percentile per-query latency
  double max_ms = 0;        ///< slowest single query
  double total_optimize_ms = 0;  ///< sum of per-query latencies (~CPU time)
  /// Queries served from OptimizerOptions::plan_cache (0 when no cache is
  /// configured). Hit latencies are the probe times, so a warm cache pulls
  /// p50 far below the planning latencies the misses pay.
  int cache_hits = 0;
};

/// Result of one batch: per-query results in input order (each carrying its
/// own arena, exactly as if Optimize had been called in a loop) plus the
/// aggregate stats.
struct BatchResult {
  std::vector<OptimizeResult> results;
  BatchStats stats;
};

/// The serving entry point: plans every query of `queries` through
/// OptimizeAdaptive, one pool task (and one private arena) per query, and
/// returns per-query results plus throughput/latency aggregates.
///
/// `num_threads <= 1` runs the plain sequential loop on the caller's thread
/// — the differential reference. Per-query plan costs are bit-identical
/// across thread counts (parallel_test). Queries inside one task run the
/// *sequential* adaptive facade: with a full batch in flight the pool is
/// already saturated, so racing strategies per query would only add queue
/// pressure, not speed.
///
/// When `options.plan_cache` is set, every task probes/populates that
/// shared cache concurrently (it is sharded and thread-safe); repeated
/// query shapes within or across batches are then planned once and served
/// from memory after — cost-identical to the cache-off run, pinned by
/// plan_cache_concurrency_test.
///
/// \deprecated Thin shim over PlannerSession (plangen/session.h):
/// equivalent to `PlannerSession(options).OptimizeBatch(queries,
/// num_threads)`. Kept for source compatibility; new code should hold a
/// PlannerSession.
BatchResult OptimizeBatch(std::span<const Query> queries,
                          const OptimizerOptions& options, int num_threads);

/// As above, on a caller-owned pool (reused across batches by a serving
/// loop; the call still blocks until the whole batch is planned). A null
/// pool runs sequentially.
///
/// \deprecated Shim over PlannerSession::OptimizeBatch, as above.
BatchResult OptimizeBatch(std::span<const Query> queries,
                          const OptimizerOptions& options, ThreadPool* pool);

/// OptimizeAdaptive with the large-query kGoo/kIdp race run as two
/// genuinely concurrent tasks: kIdp as a pool task, kGoo on the calling
/// thread (one pool slot, no idle caller). Both strategies build into
/// private arenas; the caller waits for *both* results, PickAdaptiveWinner
/// keeps the cheaper plan and the loser's arena is dropped wholesale
/// (DESIGN.md §8 ownership rules — no node of one run ever points into the
/// other's arena). Here kIdp runs unbounded, since it starts before kGoo's
/// cost exists; the sequential facade bounds kIdp by that cost, and kIdp
/// gives up there only where it would lose the race, so both return the
/// same plan (DESIGN.md §14, "seeded bound"; pinned by seeded_bound_test).
/// Wall clock is ~max(t_goo, t_idp) — both results must be in hand before
/// the comparison, so the slower strategy bounds latency (a
/// first-finisher-wins scheme would be faster but scheduler-dependent,
/// breaking the determinism contract).
///
/// Falls back to the sequential OptimizeAdaptive when `pool` is null or
/// has fewer than 2 threads (matching the batch entry point's sequential
/// reference path). Queries at or below the exact-DP threshold route to
/// the exact enumeration unchanged — there is no race to parallelize.
/// \deprecated Thin shim over PlannerSession (plangen/session.h):
/// equivalent to `PlannerSession(options).OptimizeConcurrent(query,
/// pool)`, including the cache probe. Kept for source compatibility.
OptimizeResult OptimizeAdaptiveConcurrent(const Query& query,
                                          const OptimizerOptions& options,
                                          ThreadPool* pool);

/// The cache-oblivious core of the concurrent race: exactly
/// OptimizeAdaptiveConcurrent minus the cache probe (any cache pointers
/// in `options` are ignored). This is the `plan_fresh` callback
/// PlannerSession::OptimizeConcurrent hands to the shared probe path.
/// `cost_bound` reaches the exact enumeration only (see
/// OptimizeAdaptiveUncached, which also plans the queries at or below the
/// exact threshold).
OptimizeResult OptimizeAdaptiveConcurrentUncached(
    const Query& query, const OptimizerOptions& options, ThreadPool* pool,
    double cost_bound = kNoCostBound);

}  // namespace eadp

#endif  // EADP_PLANGEN_PARALLEL_H_
