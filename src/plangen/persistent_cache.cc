#include "plangen/persistent_cache.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/binio.h"
#include "plangen/plan_cache.h"
#include "plangen/plan_serde.h"

namespace eadp {

namespace {

constexpr uint32_t kSegmentMagic = 0x47455345u;  // "ESEG"
// Version 2 (PR 9): records carry the statistics overlay between key and
// blob. Version-1 segments are skipped wholesale by the version check.
constexpr uint32_t kSegmentVersion = 2;
constexpr uint64_t kSegmentHeaderBytes = 8;
// crc + key_len + overlay_len + blob_len
constexpr uint64_t kRecordHeaderBytes = 16;

std::string SegmentName(uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "segment-%06llu.log",
                static_cast<unsigned long long>(id));
  return buf;
}

/// Parses "segment-NNNNNN.log" -> id; false for any other name.
bool ParseSegmentName(const char* name, uint64_t* id) {
  static constexpr char kPrefix[] = "segment-";
  static constexpr char kSuffix[] = ".log";
  size_t len = std::strlen(name);
  if (len <= sizeof(kPrefix) - 1 + sizeof(kSuffix) - 1) return false;
  if (std::strncmp(name, kPrefix, sizeof(kPrefix) - 1) != 0) return false;
  if (std::strcmp(name + len - (sizeof(kSuffix) - 1), kSuffix) != 0) {
    return false;
  }
  uint64_t v = 0;
  for (const char* p = name + sizeof(kPrefix) - 1;
       p != name + len - (sizeof(kSuffix) - 1); ++p) {
    if (*p < '0' || *p > '9') return false;
    v = v * 10 + static_cast<uint64_t>(*p - '0');
  }
  *id = v;
  return true;
}

bool ReadExact(int fd, uint64_t offset, void* dst, size_t n) {
  size_t done = 0;
  while (done < n) {
    ssize_t r = ::pread(fd, static_cast<char*>(dst) + done, n - done,
                        static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // EOF short of n
    done += static_cast<size_t>(r);
  }
  return true;
}

bool WriteExact(int fd, uint64_t offset, const void* src, size_t n) {
  size_t done = 0;
  while (done < n) {
    ssize_t r = ::pwrite(fd, static_cast<const char*>(src) + done, n - done,
                         static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(r);
  }
  return true;
}

/// CRC over everything after the crc word: all three length fields and
/// all three byte ranges, so a record is accepted or rejected as a unit.
uint32_t RecordCrc(uint32_t key_len, uint32_t overlay_len, uint32_t blob_len,
                   std::string_view key, std::string_view overlay,
                   std::string_view blob) {
  char lens[12];
  std::memcpy(lens, &key_len, 4);
  std::memcpy(lens + 4, &overlay_len, 4);
  std::memcpy(lens + 8, &blob_len, 4);
  uint32_t crc = Crc32(lens, sizeof(lens));
  crc = Crc32(key.data(), key.size(), crc);
  crc = Crc32(overlay.data(), overlay.size(), crc);
  crc = Crc32(blob.data(), blob.size(), crc);
  return crc;
}

}  // namespace

std::unique_ptr<PersistentPlanCache> PersistentPlanCache::Open(
    const PersistentCacheOptions& options, std::string* error) {
  auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return nullptr;
  };
  if (options.directory.empty()) return fail("directory not set");
  if (::mkdir(options.directory.c_str(), 0755) != 0 && errno != EEXIST) {
    return fail("cannot create " + options.directory + ": " +
                std::strerror(errno));
  }

  DIR* dir = ::opendir(options.directory.c_str());
  if (dir == nullptr) {
    return fail("cannot open " + options.directory + ": " +
                std::strerror(errno));
  }
  std::vector<uint64_t> ids;
  while (struct dirent* ent = ::readdir(dir)) {
    uint64_t id;
    if (ParseSegmentName(ent->d_name, &id)) ids.push_back(id);
  }
  ::closedir(dir);
  std::sort(ids.begin(), ids.end());

  std::unique_ptr<PersistentPlanCache> cache(
      new PersistentPlanCache(options));
  for (size_t i = 0; i < ids.size(); ++i) {
    bool newest = i + 1 == ids.size();
    std::string path = options.directory + "/" + SegmentName(ids[i]);
    // Only the newest segment may need tail truncation or appends; older
    // ones are immutable history.
    int fd = ::open(path.c_str(), newest ? O_RDWR : O_RDONLY);
    if (fd < 0) {
      ++cache->stats_.skipped_segments;
      ++cache->stats_.io_errors;
      continue;
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      ++cache->stats_.skipped_segments;
      ++cache->stats_.io_errors;
      continue;
    }
    Segment seg;
    seg.id = ids[i];
    seg.fd = fd;
    seg.size = static_cast<uint64_t>(st.st_size);
    seg.writable = newest;
    cache->segments_.push_back(seg);
    ++cache->stats_.segments;
    cache->stats_.bytes_on_disk += seg.size;
    cache->RecoverSegment(static_cast<uint32_t>(cache->segments_.size() - 1),
                          newest);
  }

  // Resume appends in the newest segment when it recovered clean and has
  // room; otherwise the first Put rolls a fresh one.
  if (!cache->segments_.empty()) {
    Segment& last = cache->segments_.back();
    if (last.writable && last.size < options.max_segment_bytes) {
      cache->active_segment_ = static_cast<int>(cache->segments_.size() - 1);
    }
  }

  if (options.write_behind) {
    cache->writer_ = std::thread(&PersistentPlanCache::WriterLoop,
                                 cache.get());
  }
  return cache;
}

void PersistentPlanCache::RecoverSegment(uint32_t seg_index, bool is_newest) {
  Segment& seg = segments_[seg_index];
  uint64_t good_end = 0;

  // Header: a wrong magic or an unknown version means the segment belongs
  // to another format — skip it wholesale, index nothing, never append.
  char header[kSegmentHeaderBytes];
  uint32_t magic = 0, version = 0;
  bool header_ok = seg.size >= kSegmentHeaderBytes &&
                   ReadExact(seg.fd, 0, header, sizeof(header));
  if (header_ok) {
    std::memcpy(&magic, header, 4);
    std::memcpy(&version, header + 4, 4);
  }
  if (!header_ok || magic != kSegmentMagic || version != kSegmentVersion) {
    if (header_ok && magic == kSegmentMagic && version != kSegmentVersion) {
      // Version-skewed but well-formed: leave it alone entirely.
      seg.writable = false;
      ++stats_.skipped_segments;
      return;
    }
    if (is_newest && seg.writable) {
      // A torn header can only be our own crashed first write: reset the
      // file to a clean empty segment.
      if (seg.size > 0) ++stats_.torn_records_dropped;
      uint32_t m = kSegmentMagic, v = kSegmentVersion;
      char fresh[kSegmentHeaderBytes];
      std::memcpy(fresh, &m, 4);
      std::memcpy(fresh + 4, &v, 4);
      if (::ftruncate(seg.fd, 0) == 0 &&
          WriteExact(seg.fd, 0, fresh, sizeof(fresh))) {
        stats_.bytes_on_disk += kSegmentHeaderBytes - seg.size;
        seg.size = kSegmentHeaderBytes;
      } else {
        seg.writable = false;
        ++stats_.io_errors;
      }
      return;
    }
    seg.writable = false;
    ++stats_.skipped_segments;
    return;
  }
  good_end = kSegmentHeaderBytes;

  // Record scan: stop at the first violation; everything before it is
  // servable history. Each record body is one read into `buffer`, reused
  // across the scan.
  bool torn = false;
  std::string buffer;
  while (good_end < seg.size) {
    char rec_header[kRecordHeaderBytes];
    if (seg.size - good_end < kRecordHeaderBytes ||
        !ReadExact(seg.fd, good_end, rec_header, sizeof(rec_header))) {
      torn = true;
      break;
    }
    uint32_t crc, key_len, overlay_len, blob_len;
    std::memcpy(&crc, rec_header, 4);
    std::memcpy(&key_len, rec_header + 4, 4);
    std::memcpy(&overlay_len, rec_header + 8, 4);
    std::memcpy(&blob_len, rec_header + 12, 4);
    uint64_t body =
        static_cast<uint64_t>(key_len) + overlay_len + blob_len;
    if (seg.size - good_end - kRecordHeaderBytes < body) {
      torn = true;
      break;
    }
    if (buffer.size() < body) buffer.resize(body);
    std::string_view record(buffer.data(), body);
    std::string_view key = record.substr(0, key_len);
    std::string_view overlay_bytes = record.substr(key_len, overlay_len);
    if (!ReadExact(seg.fd, good_end + kRecordHeaderBytes, buffer.data(),
                   body) ||
        RecordCrc(key_len, overlay_len, blob_len, key, overlay_bytes,
                  record.substr(key_len + overlay_len)) != crc) {
      torn = true;
      break;
    }
    // A CRC-valid record with an unparseable overlay never leaves our
    // writer; treat it like any other violation and stop the scan here.
    StatsOverlay overlay;
    if (!ParseOverlay(overlay_bytes, &overlay)) {
      torn = true;
      break;
    }
    QueryFingerprint fp;
    fp.canonical = key;
    RehashFingerprint(&fp);
    Location loc;
    loc.hash2 = fp.hash2;
    loc.overlay_hash = OverlayHash(overlay);
    loc.segment = seg_index;
    loc.offset = good_end;
    loc.key_len = key_len;
    loc.overlay_len = overlay_len;
    loc.blob_len = blob_len;
    // The scan runs in append order, so a later record for an indexed key
    // is a statistics-drift update and the index moves to it.
    IndexRecordLocked(fp.hash, loc);
    good_end += kRecordHeaderBytes + body;
  }

  if (torn) {
    ++stats_.torn_records_dropped;
    if (is_newest && seg.writable && ::ftruncate(seg.fd, good_end) == 0) {
      stats_.bytes_on_disk -= seg.size - good_end;
      seg.size = good_end;
    } else {
      // Mid-history corruption (or failed truncate): serve the prefix,
      // never append after the hole.
      seg.writable = false;
      if (is_newest) ++stats_.io_errors;
    }
  }
}

PersistentPlanCache::~PersistentPlanCache() {
  if (writer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    queue_cv_.notify_all();
    writer_.join();  // drains the queue before exiting
  }
  for (Segment& seg : segments_) {
    if (seg.fd >= 0) {
      if (seg.writable) ::fdatasync(seg.fd);
      ::close(seg.fd);
    }
  }
}

void PersistentPlanCache::IndexRecordLocked(uint64_t hash,
                                            const Location& loc) {
  auto& chain = index_[hash];
  for (Location& existing : chain) {
    if (existing.hash2 != loc.hash2) continue;
    existing = loc;
    ++stats_.superseded_records;
    return;
  }
  chain.push_back(loc);
  ++stats_.records;
}

bool PersistentPlanCache::ContainsLocked(uint64_t hash, uint64_t hash2,
                                         uint64_t overlay_hash) const {
  // hash + hash2 (128 bits) stand in for the full key here: a collision
  // merely suppresses a redundant Put or shadows a duplicate record —
  // never serves a wrong plan, because Get always compares key bytes.
  // The overlay hash narrows the duplicate to "same key, same
  // statistics"; a Put under drifted statistics must go through (it is
  // the update).
  auto it = index_.find(hash);
  if (it != index_.end()) {
    for (const Location& loc : it->second) {
      if (loc.hash2 == hash2 && loc.overlay_hash == overlay_hash) {
        return true;
      }
    }
  }
  auto pend = pending_hashes_.find(hash);
  if (pend != pending_hashes_.end()) {
    for (const auto& [h2, oh] : pend->second) {
      if (h2 == hash2 && oh == overlay_hash) return true;
    }
  }
  return false;
}

bool PersistentPlanCache::Get(const QueryFingerprint& fp,
                              StatsOverlay* overlay, OptimizeResult* out) {
  // The index keeps one record per 128-bit hash (IndexRecordLocked moves
  // an equal hash2 to the newer record), so there is one candidate at
  // most. The lock covers only the copy: records are immutable and fds stay
  // open for the cache's lifetime, so a concurrent supersede cannot change
  // the bytes this Get reads.
  Location loc;
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Location* found = nullptr;
    auto it = index_.find(fp.hash);
    if (it != index_.end()) {
      for (const Location& l : it->second) {
        if (l.hash2 == fp.hash2 && l.key_len == fp.canonical.size()) {
          found = &l;
          break;
        }
      }
    }
    if (found == nullptr) {
      ++stats_.misses;
      return false;
    }
    loc = *found;
    fd = segments_[loc.segment].fd;
  }

  // Key, overlay and blob are contiguous: one span, read with one pread
  // into this thread's reused buffer, whatever segment holds it.
  const size_t len =
      static_cast<size_t>(loc.key_len) + loc.overlay_len + loc.blob_len;
  thread_local std::string buffer;
  if (buffer.size() < len) buffer.resize(len);
  std::string_view record(buffer.data(), len);
  if (!ReadExact(fd, loc.offset + kRecordHeaderBytes, buffer.data(), len) ||
      record.substr(0, loc.key_len) != fp.canonical) {
    // Hash collision (or an unreadable record): not our key.
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    return false;
  }
  // The key matched byte for byte. A requested overlay must still hash to
  // what the record was indexed under, and the blob carries its own CRC,
  // so a record damaged after it was indexed fails here instead of
  // serving. (An overlay nobody asked for is not read at all.)
  std::string_view overlay_bytes = record.substr(loc.key_len, loc.overlay_len);
  std::string_view blob = record.substr(loc.key_len + loc.overlay_len);
  StatsOverlay parsed;
  OptimizeResult decoded;
  bool ok = (overlay == nullptr ||
             (EncodedOverlayHash(overlay_bytes) == loc.overlay_hash &&
              ParseOverlay(overlay_bytes, &parsed))) &&
            DecodePlan(blob, &decoded);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!ok) {
      ++stats_.decode_failures;
      ++stats_.misses;
      return false;
    }
    ++stats_.hits;
    ++stats_.pread_serves;
  }
  if (overlay != nullptr) *overlay = std::move(parsed);
  *out = std::move(decoded);
  return true;
}

void PersistentPlanCache::Put(const QueryFingerprint& fp,
                              const StatsOverlay& overlay,
                              const OptimizeResult& result) {
  PendingWrite w;
  w.hash = fp.hash;
  w.hash2 = fp.hash2;
  w.overlay_hash = OverlayHash(overlay);
  w.key = fp.canonical;
  AppendOverlay(overlay, &w.overlay);
  w.blob = EncodePlan(result);
  bool inline_append = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ContainsLocked(fp.hash, fp.hash2, w.overlay_hash)) {
      ++stats_.duplicate_puts;
      return;
    }
    ++stats_.puts;
    pending_hashes_[w.hash].emplace_back(w.hash2, w.overlay_hash);
    if (options_.write_behind && !stop_) {
      queue_.push_back(std::move(w));
    } else {
      inline_append = true;
    }
  }
  if (inline_append) {
    AppendRecord(w);
  } else {
    queue_cv_.notify_one();
  }
}

int PersistentPlanCache::EnsureActiveSegmentLocked() {
  if (active_segment_ >= 0) {
    const Segment& seg = segments_[active_segment_];
    if (seg.writable && seg.size < options_.max_segment_bytes) {
      return active_segment_;
    }
  }
  uint64_t id = segments_.empty() ? 0 : segments_.back().id + 1;
  std::string path = options_.directory + "/" + SegmentName(id);
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
  if (fd < 0) return -1;
  char header[kSegmentHeaderBytes];
  uint32_t m = kSegmentMagic, v = kSegmentVersion;
  std::memcpy(header, &m, 4);
  std::memcpy(header + 4, &v, 4);
  if (!WriteExact(fd, 0, header, sizeof(header))) {
    ::close(fd);
    return -1;
  }
  Segment seg;
  seg.id = id;
  seg.fd = fd;
  seg.size = kSegmentHeaderBytes;
  seg.writable = true;
  segments_.push_back(seg);
  ++stats_.segments;
  stats_.bytes_on_disk += kSegmentHeaderBytes;
  active_segment_ = static_cast<int>(segments_.size() - 1);
  return active_segment_;
}

void PersistentPlanCache::AppendRecord(const PendingWrite& w) {
  uint32_t key_len = static_cast<uint32_t>(w.key.size());
  uint32_t overlay_len = static_cast<uint32_t>(w.overlay.size());
  uint32_t blob_len = static_cast<uint32_t>(w.blob.size());
  std::string record;
  record.reserve(kRecordHeaderBytes + w.key.size() + w.overlay.size() +
                 w.blob.size());
  PutFixed32(&record, RecordCrc(key_len, overlay_len, blob_len, w.key,
                                w.overlay, w.blob));
  PutFixed32(&record, key_len);
  PutFixed32(&record, overlay_len);
  PutFixed32(&record, blob_len);
  record += w.key;
  record += w.overlay;
  record += w.blob;

  std::lock_guard<std::mutex> lock(mu_);
  auto drop_pending = [&] {
    auto it = pending_hashes_.find(w.hash);
    if (it != pending_hashes_.end()) {
      auto& v = it->second;
      v.erase(std::find(v.begin(), v.end(),
                        std::make_pair(w.hash2, w.overlay_hash)));
      if (v.empty()) pending_hashes_.erase(it);
    }
  };
  int seg_index = EnsureActiveSegmentLocked();
  if (seg_index < 0) {
    ++stats_.io_errors;
    drop_pending();
    return;
  }
  Segment& seg = segments_[seg_index];
  uint64_t offset = seg.size;
  if (!WriteExact(seg.fd, offset, record.data(), record.size())) {
    // Roll back a partial append so the log stays parseable; if even that
    // fails, retire the segment — the scan-until-violation recovery would
    // still cope, but no new record may land after the hole.
    if (::ftruncate(seg.fd, static_cast<off_t>(offset)) != 0) {
      seg.writable = false;
    }
    ++stats_.io_errors;
    drop_pending();
    return;
  }
  seg.size += record.size();
  stats_.bytes_on_disk += record.size();
  ++stats_.appended_records;
  // Index only now, with the record fully on disk: a Get racing this
  // append misses (and replans) instead of reading a half-written record.
  // Newest wins on an already-indexed key — this append is then the
  // statistics-drift update for that key.
  Location loc;
  loc.hash2 = w.hash2;
  loc.overlay_hash = w.overlay_hash;
  loc.segment = static_cast<uint32_t>(seg_index);
  loc.offset = offset;
  loc.key_len = key_len;
  loc.overlay_len = overlay_len;
  loc.blob_len = blob_len;
  IndexRecordLocked(w.hash, loc);
  drop_pending();
}

void PersistentPlanCache::WriterLoop() {
  for (;;) {
    PendingWrite w;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stop_ set and fully drained
      w = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    AppendRecord(w);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) drain_cv_.notify_all();
    }
  }
}

void PersistentPlanCache::Flush() {
  int fd = -1;
  {
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait(lock, [&] { return queue_.empty() && in_flight_ == 0; });
    if (active_segment_ >= 0) fd = segments_[active_segment_].fd;
  }
  if (fd >= 0) ::fdatasync(fd);
}

PersistentCacheStats PersistentPlanCache::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string CacheTierStatsToJson(const PlanCache* l1,
                                 const PersistentPlanCache* l2) {
  auto field = [](std::string* out, const char* name, uint64_t v,
                  bool first = false) {
    if (!first) *out += ',';
    *out += '"';
    *out += name;
    *out += "\":";
    *out += std::to_string(v);
  };
  std::string out = "{\"l1\":";
  if (l1 != nullptr) {
    PlanCacheStats s = l1->Snapshot();
    out += '{';
    field(&out, "hits", s.hits, /*first=*/true);
    field(&out, "misses", s.misses);
    field(&out, "inserts", s.inserts);
    field(&out, "evictions", s.evictions);
    field(&out, "entries", s.entries);
    field(&out, "resident_bytes", s.resident_bytes);
    field(&out, "drift_hits", s.drift_hits);
    field(&out, "replans_avoided", s.replans_avoided);
    field(&out, "replans_background", s.replans_background);
    field(&out, "refreshes", s.refreshes);
    out += '}';
  } else {
    out += "null";
  }
  out += ",\"l2\":";
  if (l2 != nullptr) {
    PersistentCacheStats s = l2->Snapshot();
    out += '{';
    field(&out, "hits", s.hits, /*first=*/true);
    field(&out, "misses", s.misses);
    field(&out, "puts", s.puts);
    field(&out, "duplicate_puts", s.duplicate_puts);
    field(&out, "decode_failures", s.decode_failures);
    field(&out, "torn_records_dropped", s.torn_records_dropped);
    field(&out, "skipped_segments", s.skipped_segments);
    field(&out, "io_errors", s.io_errors);
    field(&out, "superseded_records", s.superseded_records);
    field(&out, "records", s.records);
    field(&out, "segments", s.segments);
    field(&out, "bytes_on_disk", s.bytes_on_disk);
    out += '}';
  } else {
    out += "null";
  }
  out += '}';
  return out;
}

}  // namespace eadp
