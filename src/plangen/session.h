// PlannerSession: the one public entry object of the optimizer facade.
//
// A PlannerSession binds the planning context (caches, pools, serving
// policy) once:
//
//   PlannerSession session(knobs, context);   // or (OptimizerOptions)
//   OptimizeResult r = session.Optimize(query);
//   BatchResult b = session.OptimizeBatch(queries, pool);
//
// Every entry point funnels through one private OptimizeImpl — probe the
// configured cache tiers (plangen/plan_cache.h) when any are attached,
// plan fresh otherwise — so the probe/populate logic exists exactly once.
//
// The split the session API rests on (plangen/plangen.h): PlannerKnobs is
// plan identity (folded into the cache key wholesale), PlannerContext is
// execution context (caches, pools, serving policy — never folded). A
// session owns one composed OptimizerOptions; knobs() and context() expose
// the halves. Sessions are cheap value objects: copying one copies the
// configuration, not the caches (context pointers are borrowed, exactly as
// in OptimizerOptions — the caches/pools must outlive every session using
// them, and pools must be destroyed before the caches they refresh).
//
// Concurrency model (DESIGN.md §9): the unit of parallelism is one whole
// optimization run. Every run owns a private PlanArena and builds all of
// its state from a const Query&, so all methods are const, the session
// holds no mutable state, and one session may serve concurrent calls —
// the underlying caches are thread-safe. The serving layer on top
// (server/optimizer_service.h) adds per-session catalogs and admission
// control; this class is purely the planning facade.

#ifndef EADP_PLANGEN_SESSION_H_
#define EADP_PLANGEN_SESSION_H_

#include <functional>
#include <span>
#include <vector>

#include "algebra/query.h"
#include "common/thread_pool.h"
#include "plangen/plangen.h"

namespace eadp {

/// Aggregate serving statistics of one OptimizeBatch call. Latencies are
/// per-query wall-clock optimization times (exact DP or the large-query
/// strategies, whatever the facade ran); percentiles use the nearest-rank
/// method.
struct BatchStats {
  int num_queries = 0;
  int num_threads = 1;      ///< pool size actually used (1 == sequential)
  double wall_ms = 0;       ///< end-to-end batch wall clock
  double queries_per_second = 0;  ///< num_queries / wall seconds
  double p50_ms = 0;        ///< median per-query optimization latency
  double p95_ms = 0;        ///< 95th-percentile per-query latency
  double max_ms = 0;        ///< slowest single query
  double total_optimize_ms = 0;  ///< sum of per-query latencies (~CPU time)
  /// Queries served from a cache tier (0 when no cache is configured). Hit
  /// latencies are the probe times, so a warm cache pulls p50 far below
  /// the planning latencies the misses pay.
  int cache_hits = 0;
};

/// Result of one batch: per-query results in input order (each carrying its
/// own arena, exactly as if Optimize had been called in a loop) plus the
/// aggregate stats.
struct BatchResult {
  std::vector<OptimizeResult> results;
  BatchStats stats;
};

class PlannerSession {
 public:
  /// Default session: default knobs, no caches, no pools.
  PlannerSession() = default;

  /// Binds knob and context halves explicitly (the server's constructor
  /// path: per-session knobs over process-wide shared context).
  PlannerSession(const PlannerKnobs& knobs, const PlannerContext& context) {
    static_cast<PlannerKnobs&>(options_) = knobs;
    static_cast<PlannerContext&>(options_) = context;
  }

  /// Adopts a flat options bag (knobs and context in one aggregate).
  explicit PlannerSession(const OptimizerOptions& options)
      : options_(options) {}

  const PlannerKnobs& knobs() const { return options_; }
  const PlannerContext& context() const { return options_; }

  /// Plans one query through the adaptive facade: cache tiers first when
  /// any are attached (exact hits, drift-band serving, background
  /// re-plans — see OptimizeThroughCache), fresh adaptive planning
  /// (OptimizeAdaptiveUncached) on a miss.
  OptimizeResult Optimize(const Query& query) const;

  /// Plans every query of `queries`, one pool task (and one private
  /// arena) per query, each through this->Optimize; the call blocks until
  /// the whole batch is planned. Returns per-query results in input order
  /// plus throughput/latency aggregates. A null pool (or one with <= 1
  /// thread) runs the sequential reference loop on the calling thread;
  /// per-query plan costs are bit-identical across thread counts
  /// (parallel_test). Each task runs the sequential facade: with a full
  /// batch in flight the pool is already saturated. With a cache
  /// attached, every task probes/populates it concurrently, so repeated
  /// shapes are planned once (plan_cache_concurrency_test).
  BatchResult OptimizeBatch(std::span<const Query> queries,
                            ThreadPool* pool) const;

 private:
  /// Plans one query uncached under a cost bound (OptimizeThroughCache).
  using PlanFreshFn = std::function<OptimizeResult(
      const Query&, const OptimizerOptions&, double cost_bound)>;

  /// THE probe path: every session entry point (and so every facade call
  /// in the codebase) goes through here. With any cache tier attached,
  /// delegates to OptimizeThroughCache (which calls `plan_fresh` with the
  /// context's cache pointers cleared on a miss); without one, plans fresh
  /// directly.
  OptimizeResult OptimizeImpl(const Query& query,
                              const PlanFreshFn& plan_fresh) const;

  OptimizerOptions options_;
};

}  // namespace eadp

#endif  // EADP_PLANGEN_SESSION_H_
