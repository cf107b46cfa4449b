// OptimizerService: named planning sessions over process-wide shared
// context — the optimizer-as-a-service core (DESIGN.md §15).
//
// One service owns the expensive process-wide state exactly once: the
// tiered plan cache (memory L1, optional persistent L2), the planning
// thread pool requests execute on, and the optional background re-plan
// pool. Each named session layers the cheap per-client state on top: a
// PlannerSession binding the client's PlannerKnobs to the shared context,
// plus the session's own catalogs — queries are named by replayable
// corpus-entry lines (queries/mutation.h) and materialized lazily, so a
// SetStats call mutates one session's catalog without any other session
// observing it. Isolation across sessions is structural: the shared cache
// keys on (structural fingerprint + stats overlay + knobs), so two
// sessions only ever share an entry when their queries, statistics, and
// knobs all agree — which is exactly when sharing is correct
// (server_test pins that divergent stats never cross-serve).
//
// Key memo: each materialized spec line keeps its two-layer cache key
// (PlanCacheKeySplit under the session's knobs) next to the query, and
// Optimize probes with it, so a warm hit pays the probe and not a
// re-serialization of the whole query. The key is recomputed only when
// the query's catalog no longer matches the (catalog_id, stats_epoch)
// hints the key's overlay was captured under: every statistics mutation
// bumps the epoch (catalog/catalog.h), so a SetStats — even a same-value
// one — refreshes the key at the next Optimize with no extra code path.
// Selectivities, the one statistic outside the catalog, live on the
// operators, which the service never mutates after materialization.
//
// Admission control: TryAdmit/Release bound the planning work in flight
// across all connections (ServiceOptions::max_inflight). The transport
// (server/plan_server.h) admits before submitting to pool() and replies
// kBackpressure when the bound is hit — planning never queues unboundedly
// behind a flood of connections.
//
// Thread safety: all public methods are safe to call concurrently.
// Per-session calls serialize on the session's mutex (a SetStats can
// never race a concurrent Optimize of the same session); distinct
// sessions proceed in parallel, throttled only by admission and the pool.

#ifndef EADP_SERVER_OPTIMIZER_SERVICE_H_
#define EADP_SERVER_OPTIMIZER_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "algebra/query.h"
#include "common/thread_pool.h"
#include "plangen/persistent_cache.h"
#include "plangen/plan_cache.h"
#include "plangen/session.h"
#include "server/protocol.h"

namespace eadp {

struct ServiceOptions {
  /// Planning workers; transport handlers submit admitted requests here.
  int pool_threads = 4;
  /// Admission bound: planning requests in flight across all sessions.
  /// Excess requests are refused with kBackpressure, never queued.
  int max_inflight = 32;
  /// Shared memory-tier capacity (entries).
  size_t cache_capacity = 4096;
  /// When non-empty, opens a persistent second tier in this directory.
  std::string persistent_dir;
  /// Drift-band serving tolerance shared by every session (see
  /// PlannerContext::drift_tolerance).
  double drift_tolerance = 0;
  /// > 0 spawns a background re-plan pool of this many threads for
  /// out-of-tolerance drifted hits.
  int replan_threads = 0;
  /// Upper bound a spec line's num_relations is accepted at — the
  /// server-side lid on how much planning work one request can name.
  int max_relations = 100;
};

/// Outcome of a service call; `code == kNone` means success and the wire
/// layer forwards any other code verbatim as an error frame.
struct ServiceStatus {
  ErrorCode code = ErrorCode::kNone;
  std::string message;

  bool ok() const { return code == ErrorCode::kNone; }
  static ServiceStatus Ok() { return {}; }
  static ServiceStatus Error(ErrorCode c, std::string m) {
    return {c, std::move(m)};
  }
};

class OptimizerService {
 public:
  explicit OptimizerService(const ServiceOptions& options);
  ~OptimizerService();

  OptimizerService(const OptimizerService&) = delete;
  OptimizerService& operator=(const OptimizerService&) = delete;

  /// Creates a named session with the given knobs over the shared
  /// context. kSessionExists if the name is taken.
  ServiceStatus OpenSession(const std::string& name,
                            const PlannerKnobs& knobs);

  /// Drops a session and its materialized queries. The shared cache keeps
  /// any entries the session populated (they are keyed by content, not by
  /// session). kNoSuchSession if unknown.
  ServiceStatus CloseSession(const std::string& name);

  /// Overrides one relation's cardinality in the named session's
  /// materialization of `spec_line` (materializing it first if needed) and
  /// repairs the relation's attribute distinct counts to stay internally
  /// consistent (key attributes track the cardinality; non-key distincts
  /// are capped at it) — the ApplyStatsDrift repair rule. Only this
  /// session's catalog moves; the structural fingerprint is unchanged
  /// while the stats overlay drifts.
  ServiceStatus SetStats(const SetStatsRequest& req);

  /// Plans `spec_line` in the named session (materializing it first if
  /// needed), through the shared cache tiers. Runs on the calling thread —
  /// the transport is responsible for admission and for running this on
  /// pool(). kBadRequest on an unparsable/out-of-bounds line, kPlanFailed
  /// if planning throws.
  ServiceStatus Optimize(const std::string& session,
                         const std::string& spec_line, OptimizeResult* out);

  /// Drops every entry of the shared memory tier (persistent tier
  /// untouched — it is the durable record).
  void InvalidateCache();

  /// JSON introspection document. Empty `session` renders the global view
  /// (session count, in-flight, totals, CacheTierStatsToJson of the shared
  /// tiers); a session name renders that session's counters, including
  /// `key_refreshes` — how often a memoized cache key was (re)computed,
  /// which warm hits leave unchanged.
  ServiceStatus StatsJson(const std::string& session, std::string* out);

  // ---- Admission (used by the transport around pool() submission) ----

  /// Reserves one in-flight slot; false when max_inflight are taken (the
  /// caller replies kBackpressure and does NOT submit).
  bool TryAdmit();
  void Release();
  int inflight() const { return inflight_.load(std::memory_order_relaxed); }

  ThreadPool* pool() { return &pool_; }
  PlanCache* plan_cache() { return plan_cache_.get(); }
  PersistentPlanCache* persistent_cache() { return persistent_cache_.get(); }
  const ServiceOptions& options() const { return options_; }
  size_t session_count() const;

 private:
  /// One materialized spec line: the query (its catalog is what SetStats
  /// mutates in place) and its memoized cache key. The key is current
  /// while its overlay's (catalog_id, stats_epoch) hints match
  /// query.catalog(); a default key (id 0) never matches, so the first
  /// Optimize computes it.
  struct MaterializedQuery {
    Query query;
    PlanCacheSplitKey key;
  };

  struct SessionState {
    std::mutex mu;  ///< serializes all calls into this session
    PlannerSession planner;
    /// spec line -> materialized query and its key memo.
    std::unordered_map<std::string, MaterializedQuery> queries;
    uint64_t optimizes = 0;
    uint64_t cache_hits = 0;
    uint64_t stats_overrides = 0;
    uint64_t key_refreshes = 0;  ///< memoized keys (re)computed
  };

  /// Registry lookup; null + status set when unknown.
  std::shared_ptr<SessionState> Find(const std::string& name,
                                     ServiceStatus* status) const;

  /// Parses, bounds, and materializes `spec_line` into `state->queries`
  /// (no-op if already present). Caller holds state->mu. Returns the
  /// resident entry or null with *status set (kBadRequest).
  MaterializedQuery* MaterializeLocked(SessionState* state,
                                       const std::string& spec_line,
                                       ServiceStatus* status);

  const ServiceOptions options_;

  // Caches are declared before the pools: pools are destroyed first, so a
  // background re-plan can never outlive the cache it refreshes.
  std::unique_ptr<PlanCache> plan_cache_;
  std::unique_ptr<PersistentPlanCache> persistent_cache_;  ///< may be null

  mutable std::mutex mu_;  ///< guards sessions_
  std::map<std::string, std::shared_ptr<SessionState>> sessions_;

  std::atomic<int> inflight_{0};
  std::atomic<uint64_t> total_optimizes_{0};
  std::atomic<uint64_t> total_rejected_{0};

  std::unique_ptr<ThreadPool> replan_pool_;  ///< may be null
  ThreadPool pool_;
};

}  // namespace eadp

#endif  // EADP_SERVER_OPTIMIZER_SERVICE_H_
