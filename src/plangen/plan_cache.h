// Cross-query plan cache: fingerprint -> OptimizeResult memoization
// *across* optimization runs.
//
// The per-run DP tables of the paper memoize subplans within one query;
// under production traffic the same query shapes arrive over and over
// (parameterized application queries, dashboard refreshes), and every
// arrival re-pays the full DP/GOO/IDP cost. This cache closes that gap:
// PlannerSession::Optimize probes it with the canonical query fingerprint
// (queries/fingerprint.h) and serves the memoized plan on a hit — turning
// a multi-millisecond optimization into a microsecond-scale probe.
//
// Structure: N independent shards (striped locking), selected by the high
// bits of the fingerprint hash. Each shard is an LRU list + a hash index
// under one mutex, so concurrent probes from the batch planner's thread
// pool contend only when they land on the same shard. Correctness on hit
// never rests on the hash: the shard chain is scanned with the full
// canonical-byte comparison (QueryFingerprint::Matches), so colliding
// fingerprints coexist as separate entries and a collision can never
// serve the wrong plan.
//
// Lifetime (extends the arena ownership rules of DESIGN.md §6): a cached
// plan's nodes live in the PlanArena of the optimization run that built
// it, and the cached OptimizeResult keeps the owning shared_ptr alive.
// Lookups hand out refcounted handles (copies of that OptimizeResult), so
// an entry evicted or invalidated *while a served plan is still in use* —
// the eviction race — only drops the cache's reference; the plan and its
// arena stay valid until the last handle dies. Entries are immutable
// after insertion; first-writer-wins on duplicate inserts (any two
// results for one fingerprint are cost-identical by determinism, so which
// one wins is unobservable through costs).
//
// Statistics drift (DESIGN.md §14): since PR 9 the facade keys entries on
// the STRUCTURAL fingerprint (stats-insensitive) and stores each entry's
// statistics overlay alongside it. A probe whose overlay matches the
// entry's is the classic exact hit. A probe with drifted statistics
// re-costs the cached plan under the current catalog (cost/recost.h) and
// serves it when it stays within OptimizerOptions::drift_tolerance of the
// sensitivity lower bound; out-of-band hits re-plan — inline, or in the
// background on OptimizerOptions::replan_pool with the entry swapped in
// place via Refresh() while the stale plan keeps serving. Invalidate()
// remains the DDL hammer: schema changes (not mere statistics drift) still
// drop everything at once.

#ifndef EADP_PLANGEN_PLAN_CACHE_H_
#define EADP_PLANGEN_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "plangen/plangen.h"
#include "queries/fingerprint.h"

namespace eadp {

struct PlanCacheOptions {
  /// Maximum resident entries across all shards. Distributed evenly;
  /// each shard holds at least one entry, so the effective total is
  /// max(capacity, num_shards) rounded up to a multiple of the shard
  /// count.
  size_t capacity = 1024;
  /// Lock stripes. Rounded up to a power of two; more shards mean less
  /// contention under concurrent batch planning. 8 keeps two concurrent
  /// probes on distinct mutexes 7 times out of 8, and a shard's critical
  /// section is tiny (chain scan + list splice), so queueing behind the
  /// eighth case costs less than the cache lines more stripes would touch.
  int num_shards = 8;
};

/// Aggregate counters, readable at any time (Snapshot). hits/misses count
/// Lookup outcomes; duplicate_inserts are Insert calls that lost the
/// first-writer-wins race; evictions are capacity-driven drops;
/// invalidations are entries dropped by Invalidate(). resident_bytes sums
/// the arena payloads of resident entries — the memory the cache itself
/// keeps alive (handles may keep evicted arenas alive beyond this).
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t duplicate_inserts = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;
  size_t entries = 0;
  size_t resident_bytes = 0;
  // Drift accounting (facade-reported via RecordDriftOutcome / Refresh).
  /// Structural hits whose statistics overlay no longer matched the probe.
  uint64_t drift_hits = 0;
  /// Drifted hits served after re-costing inside the tolerance band — full
  /// re-plans that never happened.
  uint64_t replans_avoided = 0;
  /// Drifted hits served stale while a background re-plan refreshes the
  /// entry.
  uint64_t replans_background = 0;
  /// Entries swapped in place by Refresh() (background or inline re-plan
  /// completions).
  uint64_t refreshes = 0;

  double HitRate() const {
    uint64_t probes = hits + misses;
    return probes == 0 ? 0.0 : static_cast<double>(hits) / probes;
  }
};

class PlanCache {
 public:
  /// One immutable cached optimization. `result.arena` owns every node
  /// `result.plan` points into; the entry's fingerprint is kept so chain
  /// scans can compare canonical bytes without re-fingerprinting. Under
  /// structural keying `fingerprint` is the structural key and `overlay`
  /// records the statistics the plan was built under — the facade compares
  /// it against the probe's overlay to detect drift. `replan_pending` is
  /// the background-replan dedup flag: the facade CASes it before
  /// enqueuing so one drifted entry triggers at most one in-flight
  /// re-plan. It is the only mutable field; the plan itself never changes
  /// (Refresh swaps in a whole new entry instead).
  struct Entry {
    Entry(QueryFingerprint fp, StatsOverlay ov, OptimizeResult r)
        : fingerprint(std::move(fp)),
          overlay(std::move(ov)),
          result(std::move(r)) {}

    QueryFingerprint fingerprint;
    StatsOverlay overlay;
    OptimizeResult result;
    mutable std::atomic<bool> replan_pending{false};
  };
  /// Refcounted view of an entry: valid (plan, arena and all) for as long
  /// as the handle lives, regardless of eviction or invalidation.
  using Handle = std::shared_ptr<const Entry>;

  explicit PlanCache(const PlanCacheOptions& options = {});

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Probes for `fp`. On a hit the entry moves to the front of its
  /// shard's LRU list and a handle is returned; null on miss. Hit
  /// requires QueryFingerprint::Matches — full canonical equality.
  Handle Lookup(const QueryFingerprint& fp);

  /// Inserts `result` (which must carry the arena owning its plan) under
  /// `fp`, evicting least-recently-used entries of the shard past its
  /// capacity. If an entry with an equal fingerprint already exists the
  /// existing entry is returned unchanged (first-writer-wins) — callers
  /// racing to plan the same shape all end up sharing one entry.
  /// `overlay` records the statistics the plan was built under (empty for
  /// byte-keyed callers, where the fingerprint itself pins the stats).
  Handle Insert(QueryFingerprint fp, OptimizeResult result,
                StatsOverlay overlay = {});

  /// Replaces the entry matching `fp` with a fresh (overlay, result) —
  /// last-writer-wins, the inverse of Insert's first-writer-wins. This is
  /// how completed re-plans land: the stale entry (possibly still serving
  /// through outstanding handles) is unlinked and the new one takes its
  /// LRU slot. Inserts normally when no entry matches (it may have been
  /// evicted or invalidated while the re-plan ran). Counts a refresh
  /// either way.
  Handle Refresh(const QueryFingerprint& fp, StatsOverlay overlay,
                 OptimizeResult result);

  /// Facade-side drift accounting: a structural hit whose overlay
  /// mismatched the probe. `avoided` — served within tolerance without
  /// re-planning; `background` — served stale with a re-plan enqueued.
  /// Both false — the drifted hit fell through to an inline re-plan.
  void RecordDriftOutcome(bool avoided, bool background);

  /// Drops every entry (counted as invalidations). The serving layer's
  /// hook for catalog changes: statistics updates already unreach stale
  /// entries via the fingerprint, but only invalidation frees their
  /// arenas. Outstanding handles remain valid.
  void Invalidate();

  /// Point-in-time aggregate over all shards.
  PlanCacheStats Snapshot() const;

  size_t size() const;
  size_t capacity() const { return shard_capacity_ * shards_.size(); }
  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used. Owns the entries (jointly with any
    /// outstanding handles).
    std::list<Handle> lru;
    /// fingerprint.hash -> positions in `lru` with that hash. A vector
    /// chain, because structurally different queries may share a hash
    /// (that is the collision the canonical comparison exists for).
    std::unordered_map<uint64_t, std::vector<std::list<Handle>::iterator>>
        index;
    // Counters, all guarded by mu.
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t duplicate_inserts = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
    size_t resident_bytes = 0;
  };

  Shard& ShardFor(const QueryFingerprint& fp) {
    // The hash's high half picks the shard (supporting up to 2^32
    // stripes), low bits dominate the bucket placement within the
    // shard's index: distinct bit ranges, so shard load stays
    // independent of bucket placement.
    return shards_[(fp.hash >> 32) & (shards_.size() - 1)];
  }

  /// Unlinks the entry at `pos` from `shard` (lru + index + byte
  /// accounting). Caller holds shard.mu and accounts the drop reason.
  static void Unlink(Shard& shard, std::list<Handle>::iterator pos);

  static size_t EntryBytes(const Entry& e);

  std::vector<Shard> shards_;
  size_t shard_capacity_ = 0;

  // Drift counters live cache-wide (not per shard): they are facade
  // outcomes, bumped outside any shard lock.
  std::atomic<uint64_t> drift_hits_{0};
  std::atomic<uint64_t> replans_avoided_{0};
  std::atomic<uint64_t> replans_background_{0};
  std::atomic<uint64_t> refreshes_{0};
};

/// The cache key OptimizeThroughCache probes both tiers with: `structural`
/// is the stats-insensitive query fingerprint with the complete
/// PlannerKnobs folded in (the plan-identity half of the configuration; an
/// OptimizerOptions binds directly via its base), `overlay` carries the
/// current statistics separately. Execution context (PlannerContext) is
/// not a parameter — by construction the key cannot depend on cache
/// pointers, pools, worker counts or serving policy. Exposed so callers
/// that probe repeatedly (the service's per-spec-line memo) and test
/// drivers key the cache exactly as the facade does.
struct PlanCacheSplitKey {
  QueryFingerprint structural;
  StatsOverlay overlay;
};
PlanCacheSplitKey PlanCacheKeySplit(const Query& query,
                                    const PlannerKnobs& knobs);

/// The probe/populate wrapper behind every cache-aware facade entry point.
/// Its sole caller is PlannerSession::OptimizeImpl (plangen/session.h),
/// which both PlannerSession::Optimize overloads and OptimizeBatch share.
/// `key` must equal PlanCacheKeySplit(query, options): the fingerprint of
/// the query *and the planning-relevant OptimizerOptions knobs* (one cache
/// can serve mixed configurations — the same query under different
/// algorithms/ablations/knobs occupies distinct entries and is never
/// cross-served). The caller computes it, so a caller whose query has not
/// changed since the last call (the service's per-spec-line memo,
/// server/optimizer_service.h) probes without re-serializing anything;
/// only misses copy it (Insert/Refresh/Put). Probes tier by tier: the
/// memory cache first (stats.cache_tier = 1 on a hit), then the
/// persistent disk tier (plangen/persistent_cache.h; a hit decodes the
/// stored blob, is promoted into the memory tier, and reports
/// cache_tier = 2). On a full miss it plans fresh with
/// OptimizeAdaptiveUncached (which never probes a cache), writes any
/// satisfiable result behind to the disk tier and inserts it into the
/// memory tier. Hits of either tier set stats.cache_hit with optimize_ms
/// = probe (+decode) time; the caller's fingerprint is not in it.
/// Precondition: at least one of options.plan_cache /
/// options.persistent_cache is non-null.
///
/// Drift handling (DESIGN.md §14): entries are keyed on the structural
/// fingerprint with the statistics overlay stored per entry. A hit whose
/// overlay matches the probe bit-for-bit behaves exactly as above. A
/// drifted hit re-costs the cached plan under the current catalog
/// (RecostPlan) and serves it when recost <= (1 + drift_tolerance) *
/// DriftCostScale * cached cost (stats.replan_avoided, recosted_cost).
/// Out-of-band hits re-plan: on options.replan_pool (requires plan_cache)
/// the stale plan is served immediately (stats.replan_background) and the
/// fresh result later swaps in via PlanCache::Refresh; without a pool the
/// re-plan runs inline and the fresh plan is served (cache_tier = 0).
/// With drift_tolerance = 0 (default) every drifted hit re-plans, which
/// reproduces the PR 8 stats-keyed behavior observationally.
///
/// Bounded re-plan (DESIGN.md §14): a drifted hit's re-costed cost is the
/// cost of a valid complete plan under the current statistics, so the
/// re-plan that follows — inline or background — receives it as
/// OptimizeAdaptiveUncached's cost bound. Misses plan with kNoCostBound.
OptimizeResult OptimizeThroughCache(const Query& query,
                                    const PlanCacheSplitKey& key,
                                    const OptimizerOptions& options);

}  // namespace eadp

#endif  // EADP_PLANGEN_PLAN_CACHE_H_
