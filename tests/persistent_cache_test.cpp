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
//   * concurrency — parallel Get/Put against the write-behind path.

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

struct PlannedQuery {
  Query query;
  QueryFingerprint fp;
  OptimizeResult result;
};

PlannedQuery PlanNth(int i) {
  OptimizerOptions options;
  PlannedQuery p{NthQuery(i), {}, {}};
  p.fp = PlanCacheKey(p.query, options);
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
    for (const PlannedQuery& p : planned) cache->Put(p.fp, p.result);
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
    for (const PlannedQuery& p : planned) cache->Put(p.fp, p.result);
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
  cache->Put(p.fp, p.result);
  cache->Put(p.fp, p.result);
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
    for (const PlannedQuery& p : planned) cache->Put(p.fp, p.result);
    EXPECT_GE(cache->Snapshot().segments, 5u);
  }
  EXPECT_GE(ListSegments(dir.path()).size(), 5u);
  auto reopened = OpenOrDie(opts);
  EXPECT_EQ(reopened->Snapshot().records, 5u);
  for (const PlannedQuery& p : planned) ExpectServes(reopened.get(), p);
}

TEST(PersistentCache, WarmGetsServeViaMmap) {
  TempDir dir;
  PersistentCacheOptions opts;
  opts.directory = dir.path();
  opts.write_behind = false;
  opts.max_segment_bytes = 1;  // every record rolls into its own segment

  std::vector<PlannedQuery> planned;
  for (int i = 0; i < 5; ++i) planned.push_back(PlanNth(i));
  {
    auto cache = OpenOrDie(opts);
    for (const PlannedQuery& p : planned) cache->Put(p.fp, p.result);
    // Rollover seals (and maps) every segment but the active one, so the
    // first warm pass already serves the sealed records from the mapping.
    for (const PlannedQuery& p : planned) ExpectServes(cache.get(), p);
    PersistentCacheStats s = cache->Snapshot();
    EXPECT_EQ(s.mmap_serves + s.pread_serves, s.hits);
    EXPECT_GE(s.mmap_serves, 4u);  // all but the still-active tail segment
  }

  // Reopen: every full segment is sealed history, mapped by Open — a warm
  // restarted process serves *exclusively* via the mmap read path.
  auto reopened = OpenOrDie(opts);
  for (const PlannedQuery& p : planned) ExpectServes(reopened.get(), p);
  PersistentCacheStats s = reopened->Snapshot();
  EXPECT_EQ(s.hits, 5u);
  EXPECT_EQ(s.mmap_serves, 5u);
  EXPECT_EQ(s.pread_serves, 0u);

  // The serve-path split is visible to the serving layer's stats JSON.
  std::string json = CacheTierStatsToJson(nullptr, reopened.get());
  EXPECT_NE(json.find("\"mmap_serves\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pread_serves\":0"), std::string::npos) << json;
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
    for (const PlannedQuery& p : planned) cache->Put(p.fp, p.result);
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
    for (const PlannedQuery& p : planned) cache->Put(p.fp, p.result);
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
  cache->Put(planned[2].fp, planned[2].result);
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
    for (const PlannedQuery& p : planned) cache->Put(p.fp, p.result);
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
  cache->Put(planned[1].fp, planned[1].result);
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
    cache->Put(p.fp, p.result);
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
        cache->Put(p.fp, p.result);
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

  std::string json = CacheTierStatsToJson(&l1, l2.get());
  EXPECT_NE(json.find("\"l1\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"l2\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"records\":"), std::string::npos) << json;
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
          cache->Put(p.fp, p.result);
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

}  // namespace
}  // namespace eadp
