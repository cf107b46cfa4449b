// Disk-backed second plan-cache tier: canonical fingerprint -> plan blob.
//
// The PR 5 memory cache (plangen/plan_cache.h) dies with the process, so
// every restart re-pays the full planning warm-up. This tier persists
// encoded plans (plangen/plan_serde.h) in append-only log segments so a
// restarted process re-serves its steady-state working set from disk
// within the first few queries (bench_persistent_cache measures the
// recovery curve).
//
// On-disk layout: a directory of `segment-NNNNNN.log` files. Each segment
// starts with a fixed header (magic + segment-format version); records
// follow back to back (format version 2):
//
//   [u32 crc][u32 key_len][u32 overlay_len][u32 blob_len]
//   [key bytes][overlay bytes][blob bytes]
//
// `key` is the canonical cache-key fingerprint — since PR 9 the
// STRUCTURAL fingerprint with options folded in (the equality witness,
// stored in full so hash collisions can never serve a wrong plan, same
// rule as the memory tier); `overlay` is the AppendOverlay encoding of
// the statistics the plan was built under (empty-overlay encoding for
// byte-keyed callers); `blob` is the EncodePlan output. The crc covers
// the three length words and all three byte ranges, so a torn write
// anywhere in a record is detected as a unit. Version-1 segments (no
// overlay field) are skipped wholesale on open, like any other
// version-skewed segment.
//
// One servable record per key, newest wins: a re-plan under drifted
// statistics appends a new record for the same structural key and the
// index moves to it (the superseded record remains on disk as history
// and re-supersedes naturally on recovery, which scans in append order).
// Duplicate suppression is per (key, overlay): re-Putting the same plan
// under the same statistics is dropped, a Put under new statistics is an
// update.
//
// Crash recovery: Open() scans every segment sequentially and indexes
// records until the first length/CRC violation. A bad tail in the newest
// segment is the signature of a crash mid-append; the file is truncated
// at the last good record so subsequent appends extend a clean log.
// Everything before the torn record still serves bit-identical plans
// (persistent_cache_test pins this). A segment with an unknown
// header version is skipped wholesale — never parsed by guesswork,
// never deleted (a newer-format writer may own it).
//
// Write path: Put() appends through a background writer thread
// (write-behind; Flush() drains and fdatasyncs). The in-memory index is
// updated only *after* a record is fully on disk — between Put and
// append completion the entry is simply not found, which is safe
// (callers replan; duplicate Puts are suppressed). Get() decodes into a
// fresh arena per hit, so served plans share nothing mutable.
//
// Read path: a record's key, overlay and blob are contiguous, and Get reads
// them as one span. Sealed segments (every segment except the active one —
// they are immutable by construction) are mmap'd read-only and the span is
// used in place; the active segment, and any segment whose mmap failed, is
// read with one pread into a per-thread buffer that is reused across Gets.
// The key is compared byte for byte, a requested overlay against the hash the
// record was indexed under, and the blob by its own CRC, so a record damaged
// after it was indexed is a miss or a decode failure, never a serve. Each
// segment counts the index entries that point into it; once every record of a
// sealed segment has been superseded the segment serves nothing and its map
// is dropped, so the pages a dead segment once faulted in stop counting
// toward the process's RSS. Maps are held by shared ownership: a Get copies
// the map handle with its candidate under the lock, so a supersede racing
// that Get unmaps only after the Get has finished reading. Open() never maps
// a dead segment. The files themselves stay (history and recovery are
// unchanged).
//
// Coherence with the memory tier: both tiers key on the same canonical
// fingerprint; OptimizeThroughCache probes memory first, then disk
// (promoting disk hits into memory), and write-behinds fresh plans into
// both. See DESIGN.md §13.
//
// Thread safety: all public methods are safe to call concurrently.

#ifndef EADP_PLANGEN_PERSISTENT_CACHE_H_
#define EADP_PLANGEN_PERSISTENT_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "plangen/plangen.h"
#include "queries/fingerprint.h"

namespace eadp {

struct PersistentCacheOptions {
  /// Segment directory. Created if missing (one level). Required.
  std::string directory;
  /// Appends roll over to a fresh segment once the active one exceeds
  /// this. Smaller segments bound the blast radius of a torn tail.
  size_t max_segment_bytes = 8u << 20;
  /// true: Put() enqueues to a background writer thread (production —
  /// planning never blocks on disk). false: Put() appends synchronously
  /// before returning (deterministic tests, single-shot tools).
  bool write_behind = true;
};

/// Aggregate counters (Snapshot). hits/misses count Get outcomes; a Get whose
/// requested overlay no longer matches its indexed hash or whose blob fails
/// to decode (damage after the record was indexed — in practice only seen in
/// fault-injection tests) counts as decode_failures *and* misses. puts are
/// accepted Put calls; duplicate_puts were suppressed as already present or
/// in flight. torn_records_dropped / skipped_segments describe what Open()
/// refused; io_errors are failed appends (record dropped, cache still
/// serves).
struct PersistentCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t puts = 0;
  uint64_t duplicate_puts = 0;
  uint64_t decode_failures = 0;
  uint64_t appended_records = 0;
  uint64_t torn_records_dropped = 0;
  uint64_t skipped_segments = 0;
  uint64_t io_errors = 0;
  /// Index moves to a newer record for an already-indexed key (a re-plan
  /// under drifted statistics landed).
  uint64_t superseded_records = 0;
  size_t records = 0;        ///< indexed, servable records
  size_t segments = 0;       ///< segment files attached (incl. skipped)
  /// Sealed segments currently mapped; falls when a fully superseded
  /// segment is unmapped.
  size_t mmap_segments = 0;
  size_t bytes_on_disk = 0;  ///< sum of attached segment file sizes
  /// Which read path served each hit: a hit whose record bytes all came
  /// from a mapped sealed segment counts as mmap_serves; any hit that
  /// touched the pread fallback (active segment, failed map, or a record
  /// straddling the mapped prefix) counts as pread_serves. The two sum to
  /// `hits`. Warm reopened caches serve via mmap (Open maps every sealed
  /// segment; pinned by persistent_cache_test).
  uint64_t mmap_serves = 0;
  uint64_t pread_serves = 0;

  double HitRate() const {
    uint64_t probes = hits + misses;
    return probes == 0 ? 0.0 : static_cast<double>(hits) / probes;
  }
};

class PersistentPlanCache {
 public:
  /// Opens (or creates) the cache under `options.directory`: scans every
  /// segment, truncates a torn tail, builds the index. Returns null and
  /// sets `*error` if the directory cannot be created/read. Recovered
  /// state is visible in Snapshot() immediately.
  static std::unique_ptr<PersistentPlanCache> Open(
      const PersistentCacheOptions& options, std::string* error = nullptr);

  /// Flushes pending writes, fdatasyncs, closes all segments.
  ~PersistentPlanCache();

  PersistentPlanCache(const PersistentPlanCache&) = delete;
  PersistentPlanCache& operator=(const PersistentPlanCache&) = delete;

  /// Probes for `fp` (full canonical-byte comparison against the stored
  /// key, hashes only route). On a hit, decodes the blob into a fresh
  /// arena in `*out`, parses the stored statistics overlay into
  /// `*overlay` (when non-null) and returns true; false on miss or
  /// decode failure. The newest record for the key is served.
  bool Get(const QueryFingerprint& fp, StatsOverlay* overlay,
           OptimizeResult* out);
  bool Get(const QueryFingerprint& fp, OptimizeResult* out) {
    return Get(fp, nullptr, out);
  }

  /// Persists `result` under `fp` with the statistics `overlay` it was
  /// built under (write-behind by default; see options). Suppressed if a
  /// record with an equal key *and* equal overlay is already stored or
  /// queued; an equal key under different statistics appends an updating
  /// record (newest wins). Null plans are accepted — an unsatisfiable
  /// verdict is as expensive to recompute as a plan.
  void Put(const QueryFingerprint& fp, const StatsOverlay& overlay,
           const OptimizeResult& result);
  void Put(const QueryFingerprint& fp, const OptimizeResult& result) {
    Put(fp, StatsOverlay{}, result);
  }

  /// Blocks until every Put accepted so far is on disk (index updated),
  /// then fdatasyncs the active segment. The durability barrier for
  /// handing the directory to another process.
  void Flush();

  PersistentCacheStats Snapshot() const;

  const std::string& directory() const { return options_.directory; }

 private:
  struct Location {
    uint64_t hash2 = 0;
    uint64_t overlay_hash = 0;  ///< duplicate suppression per (key, stats)
    uint32_t segment = 0;  ///< index into segments_
    uint64_t offset = 0;   ///< of the record header (crc word)
    uint32_t key_len = 0;
    uint32_t overlay_len = 0;
    uint32_t blob_len = 0;
  };
  struct Segment {
    uint64_t id = 0;
    int fd = -1;
    uint64_t size = 0;  ///< valid bytes (post tail-truncation)
    bool writable = false;
    /// Read-only mapping of a sealed segment; null = serve via pread.
    /// Shared with in-flight Gets; the last holder munmaps.
    std::shared_ptr<const char> map;
    size_t map_len = 0;
    /// Index entries that point into this segment. A sealed segment at
    /// zero is dead: nothing in it can be served again.
    size_t live_records = 0;
  };
  struct PendingWrite {
    uint64_t hash = 0;
    uint64_t hash2 = 0;
    uint64_t overlay_hash = 0;
    std::string key;
    std::string overlay;  ///< AppendOverlay encoding
    std::string blob;
  };

  explicit PersistentPlanCache(PersistentCacheOptions options)
      : options_(std::move(options)) {}

  /// Scans one attached segment, indexing records and truncating a torn
  /// tail when `is_newest`.
  void RecoverSegment(uint32_t seg_index, bool is_newest);

  /// True iff `hash`/`hash2` with the same overlay is indexed or queued
  /// (the duplicate a Put would be). Caller holds mu_.
  bool ContainsLocked(uint64_t hash, uint64_t hash2,
                      uint64_t overlay_hash) const;

  /// Maps a sealed segment read-only (idempotent; failure leaves the
  /// pread fallback in place). Caller holds mu_.
  void MapSegmentLocked(Segment& seg);

  /// Points the index at `loc` for key hash `hash` — newest record wins,
  /// so an indexed key with the same hash2 moves to it — and keeps the
  /// per-segment live counts. A sealed segment whose last live record is
  /// superseded is unmapped. Caller holds mu_ (or is Open()).
  void IndexRecordLocked(uint64_t hash, const Location& loc);

  /// Appends one record to the active segment (rolling over if needed)
  /// and indexes it. Runs on the writer thread, or inline when
  /// write_behind is off.
  void AppendRecord(const PendingWrite& w);

  /// Ensures an active writable segment with room for `record_bytes`.
  /// Returns its index into segments_, or -1 on I/O failure. Caller
  /// holds mu_.
  int EnsureActiveSegmentLocked(size_t record_bytes);

  void WriterLoop();

  PersistentCacheOptions options_;

  mutable std::mutex mu_;
  std::vector<Segment> segments_;
  int active_segment_ = -1;  ///< index into segments_; -1 = none yet
  /// Cache-key hash -> records with that hash (hash2 pre-filters, the
  /// stored key bytes decide).
  std::unordered_map<uint64_t, std::vector<Location>> index_;
  /// (hash2, overlay_hash) of queued-but-unwritten records (duplicate
  /// suppression over the write-behind gap).
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      pending_hashes_;
  PersistentCacheStats stats_;

  // Write-behind machinery.
  std::deque<PendingWrite> queue_;
  std::condition_variable queue_cv_;  ///< signals the writer: work/stop
  std::condition_variable drain_cv_;  ///< signals Flush: queue drained
  size_t in_flight_ = 0;              ///< records popped but not yet indexed
  bool stop_ = false;
  std::thread writer_;
};

/// Renders the combined tier statistics as a JSON object:
/// {"l1": {...}|null, "l2": {...}|null} with hit/miss/promotion counters.
/// Companion to OptimizeStatsToJson for serving-layer introspection.
std::string CacheTierStatsToJson(const PlanCache* l1,
                                 const PersistentPlanCache* l2);

}  // namespace eadp

#endif  // EADP_PLANGEN_PERSISTENT_CACHE_H_
