// Crash-recovery and coherence pins for the disk-backed plan-cache tier
// (plangen/persistent_cache.h):
//
//   * round trips — Put/Get bit-identical plans, reopen from a cold
//     process state rebuilds the index from the segment logs;
//   * fault injection — a torn tail is truncated on reopen and drops
//     ONLY the torn record, mid-history corruption serves the clean
//     prefix and retires the segment from appends, a version-skewed
//     segment is skipped wholesale and left byte-identical on disk;
//   * two processes — a forked writer populates the directory, the
//     parent opens cold and serves the writer's plans (the cross-process
//     contract bench_persistent_cache's restart phase relies on);
//   * tier coherence — OptimizeThroughCache reports cache_tier 0 (fresh)
//     / 1 (memory) / 2 (disk), disk hits are promoted into memory, and
//     a fresh plan lands in both tiers;
//   * one read path — every segment, sealed or active, is read with
//     pread and never mapped; a key superseded across sealed segments
//     serves its newest plan and overlay, before and after reopen;
//   * concurrency — parallel Get/Put against the write-behind path, and
//     Gets racing the supersedes of the records they read;
//   * the one-read Get — a byte flipped in an indexed record's key,
//     overlay or blob, in a sealed and in the active segment, is a miss
//     or a decode failure, never a serve;
//   * cross-build directories — a committed directory written by an
//     earlier build of the same record and blob formats serves here
//     (EmitGoldenDirectory rewrites it).

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/binio.h"
#include "plangen/persistent_cache.h"
#include "plangen/plan_cache.h"
#include "plangen/plan_explain.h"
#include "plangen/plangen.h"
#include "plangen/session.h"
#include "queries/fingerprint.h"
#include "queries/query_generator.h"
#include "tests/test_util.h"

namespace eadp {
namespace {

// ---------------------------------------------------------------------------
// Filesystem helpers.
// ---------------------------------------------------------------------------

/// Scoped temp directory, removed (recursively, one level) on scope exit.
class TempDir {
 public:
  TempDir() {
    char buf[] = "/tmp/eadp_pcache_XXXXXX";
    const char* made = mkdtemp(buf);
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "";
  }
  ~TempDir() {
    if (path_.empty()) return;
    if (DIR* dir = opendir(path_.c_str())) {
      while (dirent* e = readdir(dir)) {
        std::string name = e->d_name;
        if (name == "." || name == "..") continue;
        unlink((path_ + "/" + name).c_str());
      }
      closedir(dir);
    }
    rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<std::string> ListSegments(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = opendir(dir.c_str());
  EXPECT_NE(d, nullptr);
  if (d == nullptr) return names;
  while (dirent* e = readdir(d)) {
    std::string name = e->d_name;
    if (name.rfind("segment-", 0) == 0) names.push_back(dir + "/" + name);
  }
  closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

off_t FileSize(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0 ? st.st_size : -1;
}

std::string ReadFile(const std::string& path) {
  std::string out;
  int fd = open(path.c_str(), O_RDONLY);
  EXPECT_GE(fd, 0) << path;
  if (fd < 0) return out;
  char buf[4096];
  ssize_t n;
  while ((n = read(fd, buf, sizeof(buf))) > 0) out.append(buf, n);
  close(fd);
  return out;
}

void AppendBytes(const std::string& path, const std::string& bytes) {
  int fd = open(path.c_str(), O_WRONLY | O_APPEND);
  ASSERT_GE(fd, 0) << path;
  ASSERT_EQ(write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  close(fd);
}

void FlipByteAt(const std::string& path, off_t offset) {
  int fd = open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0) << path;
  char c;
  ASSERT_EQ(pread(fd, &c, 1, offset), 1);
  c = static_cast<char>(c ^ 0xff);
  ASSERT_EQ(pwrite(fd, &c, 1, offset), 1);
  close(fd);
}

// ---------------------------------------------------------------------------
// Workload helpers.
// ---------------------------------------------------------------------------

/// Distinct small queries: varying topology/arity/seed => distinct
/// canonical fingerprints.
Query NthQuery(int i) {
  GeneratorOptions gen;
  gen.topology = (i % 2 == 0) ? QueryTopology::kChain : QueryTopology::kStar;
  gen.num_relations = 3 + (i % 3);
  return GenerateRandomQuery(gen, /*seed=*/static_cast<uint64_t>(i));
}

/// A planned query under the key the facade files it under in the disk
/// tier: the structural fingerprint with the knobs folded in, plus the
/// statistics overlay stored beside it.
struct PlannedQuery {
  Query query;
  QueryFingerprint fp;
  StatsOverlay overlay;
  OptimizeResult result;
};

/// `drift` > 1 scales relation 0's cardinality before planning: the same
/// structural key under a different statistics overlay, so a Put of it
/// supersedes the undrifted record.
PlannedQuery PlanNth(int i, double drift = 1) {
  OptimizerOptions options;
  PlannedQuery p{NthQuery(i), {}, {}, {}};
  if (drift != 1) {
    Catalog* catalog = p.query.mutable_catalog();
    catalog->SetCardinality(0, catalog->relation(0).cardinality * drift);
  }
  PlanCacheSplitKey key = PlanCacheKeySplit(p.query, options);
  p.fp = std::move(key.structural);
  p.overlay = std::move(key.overlay);
  p.result = PlannerSession(options).Optimize(p.query);
  EXPECT_NE(p.result.plan, nullptr);
  return p;
}

std::unique_ptr<PersistentPlanCache> OpenOrDie(PersistentCacheOptions opts) {
  std::string error;
  auto cache = PersistentPlanCache::Open(opts, &error);
  EXPECT_NE(cache, nullptr) << error;
  return cache;
}

/// Served plan must be bit-identical to the one that was stored.
void ExpectServes(PersistentPlanCache* cache, const PlannedQuery& p) {
  OptimizeResult out;
  ASSERT_TRUE(cache->Get(p.fp, &out)) << p.fp.canonical;
  ASSERT_NE(out.plan, nullptr);
  EXPECT_EQ(std::bit_cast<uint64_t>(out.plan->cost),
            std::bit_cast<uint64_t>(p.result.plan->cost));
  EXPECT_EQ(PlanToJson(out.plan, p.query.catalog()),
            PlanToJson(p.result.plan, p.query.catalog()));
}

// ---------------------------------------------------------------------------
// Round trips and reopen.
// ---------------------------------------------------------------------------

TEST(PersistentCache, RoundTripAndReopen) {
  TempDir dir;
  PersistentCacheOptions opts;
  opts.directory = dir.path();
  opts.write_behind = false;

  std::vector<PlannedQuery> planned;
  for (int i = 0; i < 6; ++i) planned.push_back(PlanNth(i));

  {
    auto cache = OpenOrDie(opts);
    for (const PlannedQuery& p : planned) cache->Put(p.fp, p.overlay, p.result);
    PersistentCacheStats s = cache->Snapshot();
    EXPECT_EQ(s.puts, 6u);
    EXPECT_EQ(s.records, 6u);
    EXPECT_EQ(s.appended_records, 6u);
    for (const PlannedQuery& p : planned) ExpectServes(cache.get(), p);
    EXPECT_EQ(cache->Snapshot().hits, 6u);
  }

  // A cold process (no in-memory state survives) rebuilds from the log.
  auto reopened = OpenOrDie(opts);
  EXPECT_EQ(reopened->Snapshot().records, 6u);
  EXPECT_EQ(reopened->Snapshot().torn_records_dropped, 0u);
  for (const PlannedQuery& p : planned) ExpectServes(reopened.get(), p);

  // Unknown keys miss.
  QueryFingerprint stranger;
  stranger.canonical = "no such query";
  RehashFingerprint(&stranger);
  OptimizeResult out;
  EXPECT_FALSE(reopened->Get(stranger, &out));
  EXPECT_EQ(reopened->Snapshot().misses, 1u);
}

TEST(PersistentCache, WriteBehindFlushIsDurable) {
  TempDir dir;
  PersistentCacheOptions opts;
  opts.directory = dir.path();
  opts.write_behind = true;

  std::vector<PlannedQuery> planned;
  for (int i = 0; i < 4; ++i) planned.push_back(PlanNth(i));
  {
    auto cache = OpenOrDie(opts);
    for (const PlannedQuery& p : planned) cache->Put(p.fp, p.overlay, p.result);
    cache->Flush();  // barrier: everything accepted so far is on disk
    EXPECT_EQ(cache->Snapshot().appended_records, 4u);
    for (const PlannedQuery& p : planned) ExpectServes(cache.get(), p);
  }
  auto reopened = OpenOrDie(opts);
  EXPECT_EQ(reopened->Snapshot().records, 4u);
  for (const PlannedQuery& p : planned) ExpectServes(reopened.get(), p);
}

TEST(PersistentCache, DuplicatePutsSuppressed) {
  TempDir dir;
  PersistentCacheOptions opts;
  opts.directory = dir.path();
  opts.write_behind = false;

  PlannedQuery p = PlanNth(0);
  auto cache = OpenOrDie(opts);
  cache->Put(p.fp, p.overlay, p.result);
  cache->Put(p.fp, p.overlay, p.result);
  PersistentCacheStats s = cache->Snapshot();
  EXPECT_EQ(s.puts, 1u);
  EXPECT_EQ(s.duplicate_puts, 1u);
  EXPECT_EQ(s.records, 1u);
}

TEST(PersistentCache, NullPlanRoundTrips) {
  // An unsatisfiable verdict is a legal cached value.
  TempDir dir;
  PersistentCacheOptions opts;
  opts.directory = dir.path();
  opts.write_behind = false;

  QueryFingerprint fp;
  fp.canonical = "unsatisfiable query";
  RehashFingerprint(&fp);
  OptimizeResult unsat;
  unsat.stats.algorithm = Algorithm::kDphyp;
  unsat.stats.optimize_ms = 0.5;

  auto cache = OpenOrDie(opts);
  cache->Put(fp, unsat);
  OptimizeResult out;
  ASSERT_TRUE(cache->Get(fp, &out));
  EXPECT_EQ(out.plan, nullptr);
  EXPECT_EQ(OptimizeStatsToJson(out.stats),
            OptimizeStatsToJson(unsat.stats));
}

TEST(PersistentCache, SegmentRollover) {
  TempDir dir;
  PersistentCacheOptions opts;
  opts.directory = dir.path();
  opts.write_behind = false;
  opts.max_segment_bytes = 1;  // every record rolls into its own segment

  std::vector<PlannedQuery> planned;
  for (int i = 0; i < 5; ++i) planned.push_back(PlanNth(i));
  {
    auto cache = OpenOrDie(opts);
    for (const PlannedQuery& p : planned) cache->Put(p.fp, p.overlay, p.result);
    EXPECT_GE(cache->Snapshot().segments, 5u);
  }
  EXPECT_GE(ListSegments(dir.path()).size(), 5u);
  auto reopened = OpenOrDie(opts);
  EXPECT_EQ(reopened->Snapshot().records, 5u);
  for (const PlannedQuery& p : planned) ExpectServes(reopened.get(), p);
}

/// Lines of /proc/self/maps that name a file under `dir`.
std::vector<std::string> MappedFilesUnder(const std::string& dir) {
  std::vector<std::string> lines;
  std::istringstream maps(ReadFile("/proc/self/maps"));
  for (std::string line; std::getline(maps, line);) {
    if (line.find(dir + "/") != std::string::npos) lines.push_back(line);
  }
  return lines;
}

TEST(PersistentCache, SegmentsAreNeverMapped) {
  TempDir dir;
  PersistentCacheOptions opts;
  opts.directory = dir.path();
  opts.write_behind = false;
  opts.max_segment_bytes = 1;  // every record rolls into its own segment

  std::vector<PlannedQuery> planned;
  for (int i = 0; i < 5; ++i) planned.push_back(PlanNth(i));
  {
    auto cache = OpenOrDie(opts);
    for (const PlannedQuery& p : planned) cache->Put(p.fp, p.overlay, p.result);
  }
  ASSERT_EQ(ListSegments(dir.path()).size(), 5u);

  // Reopened under the same cap, every segment is sealed history; each
  // key serves bit for bit, read with one pread, and no segment file is
  // mapped into the process.
  auto reopened = OpenOrDie(opts);
  for (const PlannedQuery& p : planned) ExpectServes(reopened.get(), p);
  PersistentCacheStats s = reopened->Snapshot();
  EXPECT_EQ(s.segments, 5u);
  EXPECT_EQ(s.hits, 5u);
  EXPECT_EQ(s.pread_serves, s.hits);
  EXPECT_EQ(s.mmap_serves, 0u);
  for (const std::string& line : MappedFilesUnder(dir.path())) {
    ADD_FAILURE() << "segment file mapped: " << line;
  }
}

TEST(PersistentCache, NewestRecordServesAcrossSealedSegments) {
  TempDir dir;
  PersistentCacheOptions opts;
  opts.directory = dir.path();
  opts.write_behind = false;
  opts.max_segment_bytes = 1;  // one record per segment

  const int kQueries = 5;
  std::vector<PlannedQuery> planned;
  std::vector<PlannedQuery> drifted;
  for (int i = 0; i < kQueries; ++i) {
    planned.push_back(PlanNth(i));
    drifted.push_back(PlanNth(i, /*drift=*/4));
    ASSERT_EQ(drifted.back().fp.canonical, planned.back().fp.canonical);
  }
  {
    auto cache = OpenOrDie(opts);
    for (const PlannedQuery& p : planned) cache->Put(p.fp, p.overlay, p.result);
  }

  // Reopen with room to spare: the newest segment stays active, the first
  // four are sealed.
  opts.max_segment_bytes = 1u << 20;
  {
    auto cache = OpenOrDie(opts);
    for (const PlannedQuery& p : planned) ExpectServes(cache.get(), p);

    // Supersede the sealed segments' records one by one (the updates land
    // in the active segment): each sealed segment loses its only live
    // record.
    for (int i = 0; i < kQueries - 1; ++i) {
      const PlannedQuery& d = drifted[static_cast<size_t>(i)];
      cache->Put(d.fp, d.overlay, d.result);
    }
    PersistentCacheStats s = cache->Snapshot();
    EXPECT_EQ(s.superseded_records, static_cast<uint64_t>(kQueries - 1));
    EXPECT_EQ(s.records, static_cast<size_t>(kQueries));

    // Every key still serves the newest plan bit for bit, and the newest
    // overlay with it.
    for (int i = 0; i < kQueries; ++i) {
      const PlannedQuery& p = i < kQueries - 1
                                  ? drifted[static_cast<size_t>(i)]
                                  : planned[static_cast<size_t>(i)];
      ExpectServes(cache.get(), p);
      StatsOverlay overlay;
      OptimizeResult out;
      ASSERT_TRUE(cache->Get(p.fp, &overlay, &out));
      EXPECT_TRUE(SameStats(overlay, p.overlay));
    }
  }

  // Recovery replays the supersedes in append order; the dead segments'
  // files stay on disk.
  auto reopened = OpenOrDie(opts);
  EXPECT_EQ(reopened->Snapshot().records, static_cast<size_t>(kQueries));
  EXPECT_EQ(ListSegments(dir.path()).size(), static_cast<size_t>(kQueries));
  for (int i = 0; i < kQueries - 1; ++i) {
    ExpectServes(reopened.get(), drifted[static_cast<size_t>(i)]);
  }
  ExpectServes(reopened.get(), planned.back());
}

// ---------------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------------

TEST(PersistentCache, TornTailGarbageTruncatedOnReopen) {
  TempDir dir;
  PersistentCacheOptions opts;
  opts.directory = dir.path();
  opts.write_behind = false;

  std::vector<PlannedQuery> planned;
  for (int i = 0; i < 3; ++i) planned.push_back(PlanNth(i));
  { // populate and close cleanly
    auto cache = OpenOrDie(opts);
    for (const PlannedQuery& p : planned) cache->Put(p.fp, p.overlay, p.result);
  }
  std::vector<std::string> segments = ListSegments(dir.path());
  ASSERT_EQ(segments.size(), 1u);
  off_t clean_size = FileSize(segments[0]);

  // Crash mid-append: garbage after the last complete record.
  AppendBytes(segments[0], std::string(20, '\x5a'));
  {
    auto cache = OpenOrDie(opts);
    PersistentCacheStats s = cache->Snapshot();
    EXPECT_GE(s.torn_records_dropped, 1u);
    EXPECT_EQ(s.records, 3u);  // only the torn bytes are gone
    for (const PlannedQuery& p : planned) ExpectServes(cache.get(), p);
  }
  // Reopen truncated the file back to the last good record.
  EXPECT_EQ(FileSize(segments[0]), clean_size);
}

TEST(PersistentCache, TornTailMidRecordDropsOnlyTornRecord) {
  TempDir dir;
  PersistentCacheOptions opts;
  opts.directory = dir.path();
  opts.write_behind = false;

  std::vector<PlannedQuery> planned;
  for (int i = 0; i < 3; ++i) planned.push_back(PlanNth(i));
  {
    auto cache = OpenOrDie(opts);
    for (const PlannedQuery& p : planned) cache->Put(p.fp, p.overlay, p.result);
  }
  std::vector<std::string> segments = ListSegments(dir.path());
  ASSERT_EQ(segments.size(), 1u);

  // Crash mid-append of the LAST record: cut into its blob bytes.
  int fd = open(segments[0].c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(ftruncate(fd, FileSize(segments[0]) - 5), 0);
  close(fd);

  auto cache = OpenOrDie(opts);
  PersistentCacheStats s = cache->Snapshot();
  EXPECT_GE(s.torn_records_dropped, 1u);
  EXPECT_EQ(s.records, 2u);
  ExpectServes(cache.get(), planned[0]);
  ExpectServes(cache.get(), planned[1]);
  OptimizeResult out;
  EXPECT_FALSE(cache->Get(planned[2].fp, &out));  // the torn record

  // The truncated log is a clean log: appends resume.
  cache->Put(planned[2].fp, planned[2].overlay, planned[2].result);
  ExpectServes(cache.get(), planned[2]);
}

TEST(PersistentCache, MidHistoryCorruptionServesPrefixAndKeepsAppending) {
  TempDir dir;
  PersistentCacheOptions opts;
  opts.directory = dir.path();
  opts.write_behind = false;
  opts.max_segment_bytes = 1;  // one record per segment

  std::vector<PlannedQuery> planned;
  for (int i = 0; i < 4; ++i) planned.push_back(PlanNth(i));
  {
    auto cache = OpenOrDie(opts);
    for (const PlannedQuery& p : planned) cache->Put(p.fp, p.overlay, p.result);
  }
  std::vector<std::string> segments = ListSegments(dir.path());
  ASSERT_GE(segments.size(), 4u);

  // Corrupt a NON-newest segment (history, not a torn tail): its record
  // is dropped, but the file is not truncated — the damage is preserved
  // for inspection and the segment is retired from appends.
  const std::string& victim = segments[1];
  off_t victim_size = FileSize(victim);
  FlipByteAt(victim, victim_size - 1);

  auto cache = OpenOrDie(opts);
  PersistentCacheStats s = cache->Snapshot();
  EXPECT_EQ(s.records, 3u);
  EXPECT_GE(s.torn_records_dropped, 1u);
  EXPECT_EQ(FileSize(victim), victim_size);  // history never truncated
  ExpectServes(cache.get(), planned[0]);
  OptimizeResult out;
  EXPECT_FALSE(cache->Get(planned[1].fp, &out));
  ExpectServes(cache.get(), planned[2]);
  ExpectServes(cache.get(), planned[3]);

  // The tier still accepts new work after losing history.
  cache->Put(planned[1].fp, planned[1].overlay, planned[1].result);
  ExpectServes(cache.get(), planned[1]);
}

TEST(PersistentCache, VersionSkewedSegmentSkippedAndPreserved) {
  TempDir dir;

  // A segment written by a future format version: plausible header,
  // unknowable payload.
  std::string future;
  PutFixed32(&future, 0x47455345u);      // segment magic "ESEG"
  PutFixed32(&future, 99u);              // future segment version
  future += std::string(64, '\x7f');     // bytes we must not parse
  std::string skewed = dir.path() + "/segment-000000.log";
  {
    int fd = open(skewed.c_str(), O_CREAT | O_WRONLY, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(write(fd, future.data(), future.size()),
              static_cast<ssize_t>(future.size()));
    close(fd);
  }

  PersistentCacheOptions opts;
  opts.directory = dir.path();
  opts.write_behind = false;
  PlannedQuery p = PlanNth(0);
  {
    auto cache = OpenOrDie(opts);
    PersistentCacheStats s = cache->Snapshot();
    EXPECT_EQ(s.skipped_segments, 1u);
    EXPECT_EQ(s.records, 0u);
    // Appends go to a NEW segment; the foreign one is never written.
    cache->Put(p.fp, p.overlay, p.result);
    ExpectServes(cache.get(), p);
  }
  // The skewed segment is byte-identical: never parsed, truncated, or
  // deleted (its writer may still own it).
  EXPECT_EQ(ReadFile(skewed), future);
  EXPECT_GE(ListSegments(dir.path()).size(), 2u);

  auto reopened = OpenOrDie(opts);
  EXPECT_EQ(reopened->Snapshot().skipped_segments, 1u);
  ExpectServes(reopened.get(), p);
}

// ---------------------------------------------------------------------------
// Two processes.
// ---------------------------------------------------------------------------

TEST(PersistentCache, TwoProcessWriterThenColdReader) {
  TempDir dir;
  PersistentCacheOptions opts;
  opts.directory = dir.path();
  opts.write_behind = true;  // the production path, writer thread and all

  // Plan in the parent too: the reader-side expectation (the child runs
  // the same deterministic optimizer).
  std::vector<PlannedQuery> planned;
  for (int i = 0; i < 3; ++i) planned.push_back(PlanNth(i));

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: populate the directory, destructor flushes, then _exit —
    // no gtest teardown, no shared stdio replay.
    int status = 0;
    {
      std::string error;
      auto cache = PersistentPlanCache::Open(opts, &error);
      if (cache == nullptr) status = 2;
      for (int i = 0; cache != nullptr && i < 3; ++i) {
        PlannedQuery p = PlanNth(i);
        if (p.result.plan == nullptr) status = 3;
        cache->Put(p.fp, p.overlay, p.result);
      }
    }
    _exit(status);
  }

  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 0);

  // Parent: cold open of the child's directory.
  auto cache = OpenOrDie(opts);
  EXPECT_EQ(cache->Snapshot().records, 3u);
  for (const PlannedQuery& p : planned) ExpectServes(cache.get(), p);
}

// ---------------------------------------------------------------------------
// Tier coherence through OptimizeThroughCache.
// ---------------------------------------------------------------------------

TEST(PersistentCache, TierTransitionsFreshMemoryDisk) {
  TempDir dir;
  PersistentCacheOptions popts;
  popts.directory = dir.path();
  popts.write_behind = false;
  auto l2 = OpenOrDie(popts);

  Query query = NthQuery(1);
  OptimizerOptions options;
  options.persistent_cache = l2.get();

  double fresh_cost;
  {
    PlanCache l1;
    options.plan_cache = &l1;

    // Tier 0: fresh plan, lands in both tiers.
    OptimizeResult r0 = PlannerSession(options).Optimize(query);
    ASSERT_NE(r0.plan, nullptr);
    EXPECT_FALSE(r0.stats.cache_hit);
    EXPECT_EQ(r0.stats.cache_tier, 0);
    fresh_cost = r0.plan->cost;

    // Tier 1: the memory cache answers first.
    OptimizeResult r1 = PlannerSession(options).Optimize(query);
    EXPECT_TRUE(r1.stats.cache_hit);
    EXPECT_EQ(r1.stats.cache_tier, 1);
    EXPECT_EQ(r1.plan->cost, fresh_cost);
    EXPECT_EQ(l2->Snapshot().puts, 1u);
  }

  // "Restart": fresh memory tier, same disk tier.
  PlanCache l1_cold;
  options.plan_cache = &l1_cold;

  OptimizeResult r2 = PlannerSession(options).Optimize(query);
  EXPECT_TRUE(r2.stats.cache_hit);
  EXPECT_EQ(r2.stats.cache_tier, 2);
  ASSERT_NE(r2.plan, nullptr);
  EXPECT_EQ(r2.plan->cost, fresh_cost);

  // The disk hit was promoted: the next probe is a memory hit.
  OptimizeResult r3 = PlannerSession(options).Optimize(query);
  EXPECT_TRUE(r3.stats.cache_hit);
  EXPECT_EQ(r3.stats.cache_tier, 1);
  EXPECT_EQ(l1_cold.Snapshot().inserts, 1u);

  // Disk-only operation (no memory tier at all) also serves.
  options.plan_cache = nullptr;
  OptimizeResult r4 = PlannerSession(options).Optimize(query);
  EXPECT_TRUE(r4.stats.cache_hit);
  EXPECT_EQ(r4.stats.cache_tier, 2);
  EXPECT_EQ(r4.plan->cost, fresh_cost);
}

TEST(PersistentCache, TierStatsJson) {
  TempDir dir;
  PersistentCacheOptions popts;
  popts.directory = dir.path();
  popts.write_behind = false;
  auto l2 = OpenOrDie(popts);
  PlanCache l1;

  PlannedQuery p = PlanNth(0);
  l2->Put(p.fp, p.overlay, p.result);
  ExpectServes(l2.get(), p);

  std::string json = CacheTierStatsToJson(&l1, l2.get());
  EXPECT_NE(json.find("\"l1\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"l2\":{\"hits\":1,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"records\":1"), std::string::npos) << json;
  // There is one read path, so `hits` says how every record was read.
  EXPECT_EQ(json.find("mmap_segments"), std::string::npos) << json;
  EXPECT_EQ(json.find("mmap_serves"), std::string::npos) << json;
  EXPECT_EQ(json.find("pread_serves"), std::string::npos) << json;
  EXPECT_EQ(CacheTierStatsToJson(nullptr, nullptr), "{\"l1\":null,\"l2\":null}");
}

// ---------------------------------------------------------------------------
// Concurrency (runs under the TSan CI leg).
// ---------------------------------------------------------------------------

TEST(PersistentCache, ConcurrentGetPut) {
  TempDir dir;
  PersistentCacheOptions opts;
  opts.directory = dir.path();
  opts.write_behind = true;

  std::vector<PlannedQuery> planned;
  for (int i = 0; i < 8; ++i) planned.push_back(PlanNth(i));
  auto cache = OpenOrDie(opts);

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, &planned, t] {
      uint64_t rng = 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(t + 1);
      for (int iter = 0; iter < 200; ++iter) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const PlannedQuery& p = planned[(rng >> 33) % planned.size()];
        if ((rng >> 16) & 1) {
          cache->Put(p.fp, p.overlay, p.result);
        } else {
          OptimizeResult out;
          if (cache->Get(p.fp, &out) && out.plan != nullptr) {
            // Served bytes must always be one of the stored plans.
            if (out.plan->cost != p.result.plan->cost) std::abort();
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  cache->Flush();

  // Duplicate suppression held under contention: at most one record per
  // distinct key.
  PersistentCacheStats s = cache->Snapshot();
  EXPECT_LE(s.records, planned.size());
  for (const PlannedQuery& p : planned) ExpectServes(cache.get(), p);
}

TEST(PersistentCache, GetRacingSupersedeReadsAWholeRecord) {
  // Readers copy a sealed record's location under the lock and read it
  // after; a writer supersedes every record of those segments meanwhile.
  // A Get that copied the old location must still read the old record
  // whole, and serve either the old or the new plan (run under TSan in
  // CI).
  TempDir dir;
  PersistentCacheOptions opts;
  opts.directory = dir.path();
  opts.write_behind = false;
  opts.max_segment_bytes = 1;  // one record per segment

  const int kQueries = 8;
  std::vector<PlannedQuery> planned;
  std::vector<PlannedQuery> drifted;
  for (int i = 0; i < kQueries; ++i) {
    planned.push_back(PlanNth(i));
    drifted.push_back(PlanNth(i, /*drift=*/4));
  }
  {
    auto cache = OpenOrDie(opts);
    for (const PlannedQuery& p : planned) cache->Put(p.fp, p.overlay, p.result);
  }
  opts.max_segment_bytes = 1u << 20;
  opts.write_behind = true;
  auto cache = OpenOrDie(opts);

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      for (int iter = 0; iter < 300; ++iter) {
        size_t i = static_cast<size_t>(iter + t) % planned.size();
        OptimizeResult out;
        if (!cache->Get(planned[i].fp, &out)) std::abort();
        uint64_t bits = std::bit_cast<uint64_t>(out.plan->cost);
        if (bits != std::bit_cast<uint64_t>(planned[i].result.plan->cost) &&
            bits != std::bit_cast<uint64_t>(drifted[i].result.plan->cost)) {
          std::abort();
        }
      }
    });
  }
  for (const PlannedQuery& d : drifted) cache->Put(d.fp, d.overlay, d.result);
  for (std::thread& t : readers) t.join();
  cache->Flush();

  EXPECT_EQ(cache->Snapshot().superseded_records,
            static_cast<uint64_t>(kQueries));
  for (const PlannedQuery& d : drifted) ExpectServes(cache.get(), d);
}

// ---------------------------------------------------------------------------
// The one-read Get: damage after indexing is never served.
// ---------------------------------------------------------------------------

/// One record's place in a segment file.
struct RecordSpan {
  off_t offset = 0;  ///< of the record header
  uint32_t key_len = 0;
  uint32_t overlay_len = 0;
  uint32_t blob_len = 0;
  std::string key;
};

/// Walks a segment file's records (header, then records back to back).
std::vector<RecordSpan> ReadRecordSpans(const std::string& path) {
  std::string file = ReadFile(path);
  std::vector<RecordSpan> spans;
  size_t pos = 8;  // segment magic + version
  while (pos + 16 <= file.size()) {
    RecordSpan r;
    r.offset = static_cast<off_t>(pos);
    std::memcpy(&r.key_len, file.data() + pos + 4, 4);
    std::memcpy(&r.overlay_len, file.data() + pos + 8, 4);
    std::memcpy(&r.blob_len, file.data() + pos + 12, 4);
    r.key = file.substr(pos + 16, r.key_len);
    spans.push_back(r);
    pos += 16 + static_cast<size_t>(r.key_len) + r.overlay_len + r.blob_len;
  }
  EXPECT_EQ(pos, file.size()) << path;
  return spans;
}

/// The segment file and span of `fp`'s record.
std::pair<std::string, RecordSpan> FindRecord(const std::string& dir,
                                              const QueryFingerprint& fp) {
  for (const std::string& path : ListSegments(dir)) {
    for (const RecordSpan& r : ReadRecordSpans(path)) {
      if (r.key == fp.canonical) return {path, r};
    }
  }
  ADD_FAILURE() << "no record for key";
  return {};
}

/// Flips every byte of `victim`'s key, overlay and blob in turn, each
/// flip undone before the next. Every Get of the victim must miss (a
/// key flip) or count a decode failure (an overlay or blob flip); the
/// other keys keep serving their own plans throughout.
void ExpectDamageNeverServes(PersistentPlanCache* cache,
                             const std::string& dir,
                             const PlannedQuery& victim,
                             const std::vector<const PlannedQuery*>& others) {
  auto [path, span] = FindRecord(dir, victim.fp);
  ASSERT_FALSE(path.empty());
  const off_t body = span.offset + 16;
  const off_t overlay_at = body + span.key_len;
  const off_t blob_at = overlay_at + span.overlay_len;
  const off_t end = blob_at + span.blob_len;

  ExpectServes(cache, victim);

  uint64_t key_flips = 0;
  uint64_t checked_flips = 0;
  for (off_t at = body; at < end; ++at) {
    FlipByteAt(path, at);
    PersistentCacheStats s0 = cache->Snapshot();
    StatsOverlay overlay;
    OptimizeResult out;
    EXPECT_FALSE(cache->Get(victim.fp, &overlay, &out))
        << "flipped byte " << (at - body) << " of the record body served";
    EXPECT_EQ(out.plan, nullptr);
    PersistentCacheStats s1 = cache->Snapshot();
    EXPECT_EQ(s1.hits, s0.hits);
    EXPECT_EQ(s1.misses, s0.misses + 1);
    if (at < overlay_at) {
      EXPECT_EQ(s1.decode_failures, s0.decode_failures) << "key byte " << at;
      ++key_flips;
    } else {
      EXPECT_EQ(s1.decode_failures, s0.decode_failures + 1)
          << "overlay/blob byte " << (at - overlay_at);
      ++checked_flips;
    }
    FlipByteAt(path, at);  // undo
  }
  EXPECT_EQ(key_flips, span.key_len);
  EXPECT_EQ(checked_flips,
            static_cast<uint64_t>(span.overlay_len) + span.blob_len);

  // The restored record serves again, and nothing else was disturbed.
  ExpectServes(cache, victim);
  for (const PlannedQuery* p : others) ExpectServes(cache, *p);
}

TEST(PersistentCache, DamagedRecordIsNeverServedFromASealedSegment) {
  TempDir dir;
  PersistentCacheOptions opts;
  opts.directory = dir.path();
  opts.write_behind = false;
  opts.max_segment_bytes = 1;  // one record per segment

  std::vector<PlannedQuery> planned;
  for (int i = 0; i < 3; ++i) planned.push_back(PlanNth(i));
  {
    auto cache = OpenOrDie(opts);
    for (const PlannedQuery& p : planned) cache->Put(p.fp, p.overlay, p.result);
  }
  // Reopened with room: the last segment is active, the first two are
  // sealed (opened read-only); planned[0] lives in the oldest.
  opts.max_segment_bytes = 1u << 20;
  auto cache = OpenOrDie(opts);
  ASSERT_EQ(cache->Snapshot().segments, 3u);
  ExpectDamageNeverServes(cache.get(), dir.path(), planned[0],
                          {&planned[1], &planned[2]});
}

TEST(PersistentCache, DamagedRecordIsNeverServedThroughPread) {
  TempDir dir;
  PersistentCacheOptions opts;
  opts.directory = dir.path();
  opts.write_behind = false;

  std::vector<PlannedQuery> planned;
  for (int i = 0; i < 3; ++i) planned.push_back(PlanNth(i));
  auto cache = OpenOrDie(opts);
  for (const PlannedQuery& p : planned) cache->Put(p.fp, p.overlay, p.result);
  // One segment, still active: planned[1] lives in the writable file.
  ASSERT_EQ(cache->Snapshot().segments, 1u);
  ExpectDamageNeverServes(cache.get(), dir.path(), planned[1],
                          {&planned[0], &planned[2]});
}

// ---------------------------------------------------------------------------
// Cross-build directories.
// ---------------------------------------------------------------------------

constexpr int kGoldenQueries = 4;

/// Copies every file of `from` into `to` (Open may truncate the newest
/// segment's tail, so the committed directory is never opened in place).
void CopyDirectory(const std::string& from, const std::string& to) {
  DIR* d = opendir(from.c_str());
  ASSERT_NE(d, nullptr) << from;
  while (dirent* e = readdir(d)) {
    std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    std::string bytes = ReadFile(from + "/" + name);
    int fd = open((to + "/" + name).c_str(), O_CREAT | O_WRONLY | O_TRUNC,
                  0644);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(write(fd, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
    close(fd);
  }
  closedir(d);
}

/// Writes the golden directory: the first kGoldenQueries queries, planned
/// and Put. Run it (into an emptied tests/corpus/l2_golden) when the
/// record, blob or key format changes on purpose, with
/// EADP_L2_EMIT_DIR=tests/corpus/l2_golden and
/// --gtest_filter='PersistentCache.EmitGoldenDirectory'.
TEST(PersistentCache, EmitGoldenDirectory) {
  const char* out = std::getenv("EADP_L2_EMIT_DIR");
  if (out == nullptr) {
    GTEST_SKIP() << "set EADP_L2_EMIT_DIR=<empty dir> to write the records";
  }
  PersistentCacheOptions opts;
  opts.directory = out;
  opts.write_behind = false;
  auto cache = OpenOrDie(opts);
  ASSERT_EQ(cache->Snapshot().records, 0u) << "emit into an empty directory";
  for (int i = 0; i < kGoldenQueries; ++i) {
    PlannedQuery p = PlanNth(i);
    cache->Put(p.fp, p.overlay, p.result);
  }
  cache->Flush();
}

TEST(PersistentCache, GoldenDirectoryFromAnEarlierBuildServes) {
  // $EADP_L2_GOLDEN_DIR points the check at another build's directory.
  const char* override_dir = std::getenv("EADP_L2_GOLDEN_DIR");
  const std::string golden =
      override_dir != nullptr ? override_dir
                              : std::string(EADP_CORPUS_DIR) + "/l2_golden";
  TempDir dir;
  CopyDirectory(golden, dir.path());
  PersistentCacheOptions opts;
  opts.directory = dir.path();
  opts.write_behind = false;
  auto cache = OpenOrDie(opts);
  PersistentCacheStats s = cache->Snapshot();
  EXPECT_EQ(s.records, static_cast<size_t>(kGoldenQueries));
  EXPECT_EQ(s.torn_records_dropped, 0u);
  EXPECT_EQ(s.skipped_segments, 0u);
  for (int i = 0; i < kGoldenQueries; ++i) {
    // The stored plan is the one this build plans, under the same key and
    // statistics, and re-encodes to the stored bytes.
    PlannedQuery p = PlanNth(i);
    ExpectServes(cache.get(), p);
    StatsOverlay overlay;
    OptimizeResult out;
    ASSERT_TRUE(cache->Get(p.fp, &overlay, &out));
    EXPECT_TRUE(SameStats(overlay, p.overlay));
    auto [path, span] = FindRecord(dir.path(), p.fp);
    std::string stored = ReadFile(path).substr(
        static_cast<size_t>(span.offset) + 16 + span.key_len +
            span.overlay_len,
        span.blob_len);
    EXPECT_EQ(EncodePlan(out), stored);
  }
  EXPECT_EQ(cache->Snapshot().decode_failures, 0u);
}

}  // namespace
}  // namespace eadp
