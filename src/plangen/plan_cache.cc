#include "plangen/plan_cache.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <optional>
#include <utility>

#include "common/thread_pool.h"
#include "cost/recost.h"
#include "plangen/persistent_cache.h"
#include "queries/mutation.h"

namespace eadp {

namespace {

/// Extends a query fingerprint with the complete PlannerKnobs — every
/// field, no exclusion list — so one cache can serve mixed configurations
/// without ever crossing them: the same query planned under kEaPrune and
/// under a pruning ablation (or another idp_block_size, tolerance, ...)
/// gets two distinct entries. Execution context (cache pointers, pools,
/// drift_tolerance) never reaches this function at all: the knobs/context
/// split in plangen.h puts it in PlannerContext, which the key does not
/// consume — the per-knob "excluded from the key" special-casing this
/// function used to carry is now a type-level property. Appends bytes
/// only, through the same CanonicalWriter the query half uses (the two
/// halves of a cache key must never desynchronize their encodings); the
/// caller hashes the finished canonical form once.
void FoldOptionsIntoFingerprint(const PlannerKnobs& knobs,
                                QueryFingerprint* fp) {
  // Tripwire: adding a field to PlannerKnobs changes its size and fails
  // this assert. Every knob is plan identity by definition of the struct
  // (execution context belongs in PlannerContext instead), so the fix is
  // always: fold the new field below, then update the expected size.
  static_assert(sizeof(PlannerKnobs) == 32,
                "PlannerKnobs changed: fold the new knob into the cache "
                "key below, then update this size");
  CanonicalWriter w(&fp->canonical);
  w.U8(0xfe);  // options-block marker (query serializations start fields
               // right after the version byte; this delimits the suffix)
  w.U8(static_cast<uint8_t>(knobs.algorithm));
  w.F64(knobs.h2_tolerance);
  w.U8(knobs.top_grouping_elimination ? 1 : 0);
  w.U8(knobs.prune_without_keys ? 1 : 0);
  w.U8(knobs.prune_without_cardinality ? 1 : 0);
  w.U8(knobs.full_fd_dominance ? 1 : 0);
  w.I32(knobs.adaptive_exact_relations);
  w.I32(knobs.idp_block_size);
}

}  // namespace

PlanCache::PlanCache(const PlanCacheOptions& options) {
  size_t shards = std::bit_ceil(static_cast<size_t>(
      std::max(options.num_shards, 1)));
  shards_ = std::vector<Shard>(shards);
  // Ceil-divide so the shard total never undercuts the requested capacity;
  // at least one entry per shard so tiny capacities still cache.
  shard_capacity_ = std::max<size_t>(
      1, (std::max<size_t>(options.capacity, 1) + shards - 1) / shards);
}

size_t PlanCache::EntryBytes(const Entry& e) {
  size_t n = sizeof(Entry) + e.fingerprint.canonical.size();
  if (e.result.arena != nullptr) n += e.result.arena->bytes_used();
  return n;
}

void PlanCache::Unlink(Shard& shard, std::list<Handle>::iterator pos) {
  const Entry& entry = **pos;
  shard.resident_bytes -= EntryBytes(entry);
  auto chain_it = shard.index.find(entry.fingerprint.hash);
  auto& chain = chain_it->second;
  chain.erase(std::find(chain.begin(), chain.end(), pos));
  if (chain.empty()) shard.index.erase(chain_it);
  shard.lru.erase(pos);
}

PlanCache::Handle PlanCache::Lookup(const QueryFingerprint& fp) {
  Shard& shard = ShardFor(fp);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto chain_it = shard.index.find(fp.hash);
  if (chain_it != shard.index.end()) {
    for (auto pos : chain_it->second) {
      const Entry& entry = **pos;
      // The load-bearing comparison: hash equality got us here, but only
      // canonical-byte equality may serve the plan.
      if (entry.fingerprint.hash2 == fp.hash2 &&
          entry.fingerprint.Matches(fp)) {
        shard.lru.splice(shard.lru.begin(), shard.lru, pos);
        ++shard.hits;
        return *pos;
      }
    }
  }
  ++shard.misses;
  return nullptr;
}

PlanCache::Handle PlanCache::Insert(QueryFingerprint fp,
                                    OptimizeResult result,
                                    StatsOverlay overlay) {
  Shard& shard = ShardFor(fp);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto chain_it = shard.index.find(fp.hash);
  if (chain_it != shard.index.end()) {
    for (auto pos : chain_it->second) {
      if ((*pos)->fingerprint.hash2 == fp.hash2 &&
          (*pos)->fingerprint.Matches(fp)) {
        // First writer wins; concurrent planners of one shape share its
        // entry. Freshen recency — a duplicate insert is evidence of use.
        shard.lru.splice(shard.lru.begin(), shard.lru, pos);
        ++shard.duplicate_inserts;
        return *pos;
      }
    }
  }
  Handle handle = std::make_shared<Entry>(std::move(fp), std::move(overlay),
                                          std::move(result));
  shard.lru.push_front(handle);
  shard.index[handle->fingerprint.hash].push_back(shard.lru.begin());
  shard.resident_bytes += EntryBytes(*handle);
  ++shard.inserts;
  while (shard.lru.size() > shard_capacity_) {
    Unlink(shard, std::prev(shard.lru.end()));
    ++shard.evictions;
  }
  return handle;
}

PlanCache::Handle PlanCache::Refresh(const QueryFingerprint& fp,
                                     StatsOverlay overlay,
                                     OptimizeResult result) {
  refreshes_.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = ShardFor(fp);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto chain_it = shard.index.find(fp.hash);
  if (chain_it != shard.index.end()) {
    for (auto pos : chain_it->second) {
      if ((*pos)->fingerprint.hash2 == fp.hash2 &&
          (*pos)->fingerprint.Matches(fp)) {
        // Swap in place: the stale entry is unlinked (outstanding handles
        // keep it and its arena alive) and the fresh one takes the MRU
        // slot. Last-writer-wins — the whole point is replacing stale
        // statistics, so the newest result must land.
        Unlink(shard, pos);
        break;
      }
    }
  }
  Handle handle = std::make_shared<Entry>(fp, std::move(overlay),
                                          std::move(result));
  shard.lru.push_front(handle);
  shard.index[handle->fingerprint.hash].push_back(shard.lru.begin());
  shard.resident_bytes += EntryBytes(*handle);
  while (shard.lru.size() > shard_capacity_) {
    Unlink(shard, std::prev(shard.lru.end()));
    ++shard.evictions;
  }
  return handle;
}

void PlanCache::RecordDriftOutcome(bool avoided, bool background) {
  drift_hits_.fetch_add(1, std::memory_order_relaxed);
  if (avoided) replans_avoided_.fetch_add(1, std::memory_order_relaxed);
  if (background) {
    replans_background_.fetch_add(1, std::memory_order_relaxed);
  }
}

void PlanCache::Invalidate() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.invalidations += shard.lru.size();
    shard.index.clear();
    shard.lru.clear();
    shard.resident_bytes = 0;
  }
}

PlanCacheStats PlanCache::Snapshot() const {
  PlanCacheStats stats;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.inserts += shard.inserts;
    stats.duplicate_inserts += shard.duplicate_inserts;
    stats.evictions += shard.evictions;
    stats.invalidations += shard.invalidations;
    stats.entries += shard.lru.size();
    stats.resident_bytes += shard.resident_bytes;
  }
  stats.drift_hits = drift_hits_.load(std::memory_order_relaxed);
  stats.replans_avoided = replans_avoided_.load(std::memory_order_relaxed);
  stats.replans_background =
      replans_background_.load(std::memory_order_relaxed);
  stats.refreshes = refreshes_.load(std::memory_order_relaxed);
  return stats;
}

size_t PlanCache::size() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.lru.size();
  }
  return n;
}

PlanCacheSplitKey PlanCacheKeySplit(const Query& query,
                                    const PlannerKnobs& knobs) {
  PlanCacheSplitKey key;
  SplitFingerprint split = FingerprintQuerySplitUnhashed(query);
  key.structural = std::move(split.structural);
  key.overlay = std::move(split.overlay);
  FoldOptionsIntoFingerprint(knobs, &key.structural);
  RehashFingerprint(&key.structural);
  return key;
}

namespace {

/// Claims the entry's replan flag and enqueues a full re-plan of `query`
/// under `cost_bound` on options.replan_pool; the completed result swaps
/// into both tiers via Refresh/Put. Returns true when the stale entry may
/// keep serving (a re-plan is now — or already was — in flight); false
/// when background re-planning is unavailable and the caller must re-plan
/// inline.
///
/// The task snapshots the query and the options by value
/// (QuerySpec::FromQuery): the caller's stack frame is long gone when the
/// task runs. Lifetime contract (plangen.h): the pool must be destroyed
/// before the caches, never the reverse — the pool's destructor drains
/// queued tasks, each of which touches both caches.
bool StartBackgroundReplan(
    const Query& query, const OptimizerOptions& options,
    const QueryFingerprint& fp, const StatsOverlay& overlay,
    const PlanCache::Handle& entry, double cost_bound) {
  if (options.replan_pool == nullptr || options.plan_cache == nullptr ||
      entry == nullptr) {
    return false;
  }
  // Synthetic queries (no operator tree) cannot be snapshotted for
  // deferred re-planning; fall back to inline.
  if (query.root() == nullptr) return false;
  bool expected = false;
  if (!entry->replan_pending.compare_exchange_strong(expected, true)) {
    // A re-plan for this entry is already in flight: keep serving stale,
    // enqueue nothing.
    return true;
  }
  auto snapshot = std::make_shared<QuerySpec>(QuerySpec::FromQuery(query));
  options.replan_pool->Submit(
      [snapshot, options, fp, overlay, entry, cost_bound] {
        Query q = snapshot->ToQuery();
        OptimizeResult fresh =
            OptimizeAdaptiveUncached(q, options, cost_bound);
        if (fresh.plan != nullptr) {
          if (options.persistent_cache != nullptr) {
            options.persistent_cache->Put(fp, overlay, fresh);
          }
          options.plan_cache->Refresh(fp, overlay, std::move(fresh));
        }
        // Clear the flag on the (now unlinked) stale entry last: should
        // the Refresh have raced an eviction, a later drifted hit on a
        // re-inserted entry starts from a fresh flag anyway.
        entry->replan_pending.store(false);
      });
  return true;
}

}  // namespace

OptimizeResult OptimizeThroughCache(
    const Query& query, const PlanCacheSplitKey& key,
    const OptimizerOptions& options) {
  auto start = std::chrono::steady_clock::now();
  auto elapsed_ms = [&start] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  const QueryFingerprint& fp = key.structural;
  // Set on the first drifted structural hit: the fresh plan must then
  // *replace* the stale entry (Refresh), not lose to it (Insert's
  // first-writer-wins).
  bool drifted = false;
  // Cost of a drifted hit's plan re-costed under the current statistics:
  // a valid complete plan, hence an upper bound on the re-plan's optimum
  // (the bounded re-plan, DESIGN.md §14). The minimum over both tiers.
  double replan_bound = kNoCostBound;

  // A structural hit whose overlay mismatches the probe: re-cost the
  // cached plan under the current catalog, serve within the tolerance
  // band, otherwise try to hand the re-plan to the background pool while
  // the stale plan keeps serving. nullopt = caller must re-plan inline.
  auto serve_drifted =
      [&](const OptimizeResult& cached, const StatsOverlay& stored, int tier,
          const PlanCache::Handle& entry) -> std::optional<OptimizeResult> {
    drifted = true;
    double recosted = 0;
    bool within = false;
    if (cached.plan != nullptr) {
      RecostResult rc = RecostPlan(cached.plan, query);
      if (rc.ok) {
        recosted = rc.cost;
        replan_bound = std::min(replan_bound, rc.cost);
        // cached cost × scale lower-bounds the fresh optimum under the
        // probe's statistics (cost/recost.h); a re-plan can beat the
        // re-costed cached plan by at most the gap to that bound.
        double scale = DriftCostScale(stored, key.overlay);
        within = options.drift_tolerance > 0 && scale > 0 &&
                 rc.cost <=
                     (1.0 + options.drift_tolerance) * scale *
                         cached.plan->cost;
      }
    }
    bool background =
        !within &&
        StartBackgroundReplan(query, options, fp, key.overlay, entry,
                              replan_bound);
    if (options.plan_cache != nullptr) {
      options.plan_cache->RecordDriftOutcome(within, background);
    }
    if (!within && !background) return std::nullopt;
    OptimizeResult result = cached;
    result.stats.cache_hit = true;
    result.stats.cache_tier = tier;
    result.stats.replan_avoided = within;
    result.stats.replan_background = background;
    result.stats.recosted_cost = recosted;
    result.stats.optimize_ms = elapsed_ms();
    return result;
  };

  if (options.plan_cache != nullptr) {
    if (PlanCache::Handle hit = options.plan_cache->Lookup(fp)) {
      if (SameStats(hit->overlay, key.overlay)) {
        // Exact hit — statistics unchanged since the entry was built.
        // Copying the cached OptimizeResult copies its arena shared_ptr,
        // so the served plan stays alive past eviction without the handle.
        OptimizeResult result = hit->result;
        result.stats.cache_hit = true;
        result.stats.cache_tier = 1;
        result.stats.optimize_ms = elapsed_ms();
        return result;
      }
      if (std::optional<OptimizeResult> served =
              serve_drifted(hit->result, hit->overlay, 1, hit)) {
        return *served;
      }
    }
  }
  if (options.persistent_cache != nullptr) {
    StatsOverlay stored;
    OptimizeResult revived;
    if (options.persistent_cache->Get(fp, &stored, &revived)) {
      if (SameStats(stored, key.overlay)) {
        // Promote into the memory tier so the shape's next arrival is a
        // probe, not a disk read + decode. The promoted copy is what we
        // serve now (its arena is shared), matching the L1-hit path.
        revived.stats.cache_hit = true;
        revived.stats.cache_tier = 2;
        revived.stats.optimize_ms = elapsed_ms();
        if (options.plan_cache != nullptr && revived.plan != nullptr) {
          options.plan_cache->Insert(fp, revived, stored);
        }
        return revived;
      }
      // Drifted disk hit: promote the stale plan first (background
      // re-planning needs an L1 entry to dedup on; Insert returns the
      // existing entry if a drifted L1 resident beat us here).
      PlanCache::Handle promoted;
      if (options.plan_cache != nullptr && revived.plan != nullptr) {
        promoted = options.plan_cache->Insert(fp, revived, stored);
      }
      if (std::optional<OptimizeResult> served =
              serve_drifted(revived, stored, 2, promoted)) {
        return *served;
      }
    }
  }
  OptimizeResult result =
      OptimizeAdaptiveUncached(query, options, replan_bound);
  // Unsatisfiable queries stay uncached: a null plan carries no arena to
  // keep alive and costs nothing to rediscover.
  if (result.plan != nullptr) {
    // Write-behind to disk first: Put copies what it needs, Insert moves.
    if (options.persistent_cache != nullptr) {
      options.persistent_cache->Put(fp, key.overlay, result);
    }
    if (options.plan_cache != nullptr) {
      if (drifted) {
        // Inline re-plan of a drifted entry: the fresh result replaces
        // the stale one.
        options.plan_cache->Refresh(fp, key.overlay, result);
      } else {
        options.plan_cache->Insert(fp, result, key.overlay);
      }
    }
  }
  return result;
}

}  // namespace eadp
