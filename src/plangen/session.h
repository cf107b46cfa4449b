// PlannerSession: the one public entry object of the optimizer facade.
//
// Before the session API the facade was four free functions
// (OptimizeAdaptive, OptimizeAdaptiveConcurrent, OptimizeBatch,
// OptimizeThroughCache), each re-plumbing the same cache/pool/options
// context and each wrapping its planning core in its own copy of the
// cache-probe dance. A PlannerSession binds that context once:
//
//   PlannerSession session(knobs, context);   // or (OptimizerOptions)
//   OptimizeResult r = session.Optimize(query);
//   BatchResult b = session.OptimizeBatch(queries, pool);
//
// Every entry point funnels through one private OptimizeImpl — probe the
// configured cache tiers (plangen/plan_cache.h) when any are attached,
// plan fresh otherwise — so the probe/populate logic exists exactly once.
// The old free functions survive as thin documented shims constructing a
// transient session, which is what keeps every pre-session call site and
// test source-compatible.
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
// Thread safety: all methods are const and the session holds no mutable
// state, so one session may serve concurrent calls — the underlying
// caches are thread-safe and every optimization run owns a private arena
// (DESIGN.md §9). The serving layer on top (server/optimizer_service.h)
// adds per-session catalogs and admission control; this class is purely
// the planning facade.

#ifndef EADP_PLANGEN_SESSION_H_
#define EADP_PLANGEN_SESSION_H_

#include <functional>
#include <span>

#include "algebra/query.h"
#include "plangen/parallel.h"
#include "plangen/plangen.h"

namespace eadp {

class PlannerSession {
 public:
  /// Default session: default knobs, no caches, no pools — equivalent to
  /// the bare OptimizeAdaptive of PR 3.
  PlannerSession() = default;

  /// Binds knob and context halves explicitly (the server's constructor
  /// path: per-session knobs over process-wide shared context).
  PlannerSession(const PlannerKnobs& knobs, const PlannerContext& context) {
    static_cast<PlannerKnobs&>(options_) = knobs;
    static_cast<PlannerContext&>(options_) = context;
  }

  /// Adopts a flat options bag (the shim path: every pre-session call
  /// site built one of these).
  explicit PlannerSession(const OptimizerOptions& options)
      : options_(options) {}

  const PlannerKnobs& knobs() const { return options_; }
  const PlannerContext& context() const { return options_; }
  /// The composed view (knobs + context), e.g. for forwarding to the
  /// free-function layer.
  const OptimizerOptions& options() const { return options_; }
  PlannerKnobs& mutable_knobs() { return options_; }
  PlannerContext& mutable_context() { return options_; }

  /// Plans one query through the adaptive facade: cache tiers first when
  /// any are attached (exact hits, drift-band serving, background
  /// re-plans — see OptimizeThroughCache), fresh adaptive planning on a
  /// miss. Identical behavior to the OptimizeAdaptive free function.
  OptimizeResult Optimize(const Query& query) const;

  /// As Optimize, but a cache miss runs the large-query kGoo/kIdp race as
  /// two concurrent tasks on `race_pool` (one slot; kGoo runs on the
  /// calling thread). Falls back to the sequential path when the pool is
  /// null/too small or the query routes to exact DP. Cost-identical to
  /// Optimize by construction (PickAdaptiveWinner compares completed
  /// plans, never completion order).
  OptimizeResult OptimizeConcurrent(const Query& query,
                                    ThreadPool* race_pool) const;

  /// Plans every query of `queries`, one pool task (and one private
  /// arena) per query, each through this->Optimize. Returns per-query
  /// results in input order plus throughput/latency aggregates. A null
  /// pool (or one with <= 1 thread) runs the sequential reference loop on
  /// the calling thread; per-query plan costs are identical across thread
  /// counts (parallel_test).
  BatchResult OptimizeBatch(std::span<const Query> queries,
                            ThreadPool* pool) const;

  /// As above on a transient pool of `num_threads` (<= 1 is sequential).
  BatchResult OptimizeBatch(std::span<const Query> queries,
                            int num_threads) const;

 private:
  /// Plans one query uncached under a cost bound (OptimizeThroughCache).
  using PlanFreshFn = std::function<OptimizeResult(
      const Query&, const OptimizerOptions&, double cost_bound)>;

  /// THE probe path: every session entry point (and through the shims,
  /// every facade call in the codebase) goes through here. With any cache
  /// tier attached, delegates to OptimizeThroughCache (which calls
  /// `plan_fresh` with the context's cache pointers cleared on a miss);
  /// without one, plans fresh directly.
  OptimizeResult OptimizeImpl(const Query& query,
                              const PlanFreshFn& plan_fresh) const;

  OptimizerOptions options_;
};

}  // namespace eadp

#endif  // EADP_PLANGEN_SESSION_H_
