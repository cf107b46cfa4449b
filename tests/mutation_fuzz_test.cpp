// The mutation fuzz driver (ctest label "fuzz"; exempt from tier-1
// wall-clock budgets).
//
//   * SweepAllStrategies — drives seeded mutation chains from generator
//     and TPC-H seeds, planning every mutant through the full oracle
//     stack of tests/fuzz_util.h (all strategies + plan validator +
//     exec-backed row equivalence + cache-warm path). Any failure is
//     minimized by replaying chain prefixes and emitted as a replayable
//     (seed, chain) corpus line — to stderr always, and into
//     $EADP_FUZZ_REPRO_DIR/*.corpus when set (CI uploads that directory
//     as an artifact).
//   * PlanCacheAdversarialStream — a 1000-query stream in which more than
//     half the queries are near-duplicate mutants of one another; every
//     cache hit must be cost-identical to a fresh plan and row-identical
//     to the canonical evaluation (zero cross-serving), with sane
//     aggregate hit-rate stats.
//   * ReplayFromEnv — replays one corpus line from $EADP_FUZZ_REPLAY
//     through the oracle stack (the reproducer loop of scripts/fuzz.sh).
//   * EmitCorpus — when $EADP_FUZZ_EMIT_CORPUS names a file, re-runs the
//     sweep and folds structurally distinct survivors into corpus-format
//     lines (the maintenance path for tests/corpus/).
//
// Budget: $EADP_FUZZ_MUTANTS when set; otherwise 5000 on optimized
// un-instrumented builds, scaled down under sanitizers and -O0 so the
// ASan/UBSan legs finish inside their CI slots while still sweeping every
// operator and seed kind. All randomness is seeded — two runs of the same
// binary fuzz identical mutants.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "plangen/plan_cache.h"
#include "plangen/session.h"
#include "queries/fingerprint.h"
#include "queries/mutation.h"
#include "tests/fuzz_util.h"

namespace eadp {
namespace {

int FuzzBudget() {
  if (const char* env = std::getenv("EADP_FUZZ_MUTANTS")) {
    return std::max(1, std::atoi(env));
  }
  if (kInstrumentedBuild) return 600;
  if (!kTimingPinned) return 1200;  // -O0 Debug legs
  return 5000;
}

/// The deterministic seed pool the sweep rotates through: every TPC-H
/// skeleton, the random-tree presets at several sizes, and every
/// structured topology (cliques kept small — kEaAll on a mutated clique
/// is the exponential worst case).
std::vector<FuzzSeed> FuzzSeedPool() {
  std::vector<FuzzSeed> pool;
  for (const char* name : {"ex", "q1", "q3", "q5", "q10", "q18"}) {
    FuzzSeed s;
    s.kind = "tpch";
    s.tpch = name;
    pool.push_back(s);
  }
  for (int n : {4, 5, 6, 7}) {
    for (const char* preset : {"default", "inner", "outer"}) {
      FuzzSeed s;
      s.kind = "gen";
      s.topology = QueryTopology::kRandomTree;
      s.num_relations = n;
      s.preset = preset;
      s.seed = static_cast<uint64_t>(n) * 131 + 7;
      pool.push_back(s);
    }
  }
  for (QueryTopology t : {QueryTopology::kChain, QueryTopology::kStar,
                          QueryTopology::kCycle, QueryTopology::kSnowflake}) {
    for (int n : {5, 7}) {
      FuzzSeed s;
      s.kind = "gen";
      s.topology = t;
      s.num_relations = n;
      s.seed = static_cast<uint64_t>(n) * 977 + 13;
      pool.push_back(s);
    }
  }
  {
    FuzzSeed s;
    s.kind = "gen";
    s.topology = QueryTopology::kClique;
    s.num_relations = 5;
    s.seed = 4242;
    pool.push_back(s);
  }
  for (QueryTopology t : {QueryTopology::kStar, QueryTopology::kSnowflake}) {
    FuzzSeed s;
    s.kind = "gen";
    s.topology = t;
    s.num_relations = 7;
    s.preset = "manyattr";
    s.seed = 5151;
    pool.push_back(s);
  }
  return pool;
}

/// Rotates the pool; generator seeds get fresh RNG seeds each lap so
/// successive laps fuzz fresh base queries.
FuzzSeed SeedAt(const std::vector<FuzzSeed>& pool, uint64_t round) {
  FuzzSeed seed = pool[round % pool.size()];
  if (seed.kind == "gen") seed.seed += 1000003 * (round / pool.size());
  return seed;
}

/// Minimizes a failing chain to its shortest failing prefix by replay
/// (each prefix is checked against a fresh, hermetic oracle).
CorpusEntry Minimize(const FuzzSeed& seed, const QuerySpec& seed_spec,
                     const std::vector<MutationStep>& chain,
                     std::vector<std::string>* failures) {
  CorpusEntry entry;
  entry.seed = seed;
  for (size_t len = 1; len <= chain.size(); ++len) {
    QuerySpec prefix = MutationEngine::Replay(seed_spec, chain, len);
    PlanCache cache;
    FuzzOracleOptions oracle;
    oracle.cache = &cache;
    FuzzOracleReport report = CheckMutant(prefix.ToQuery(), oracle);
    if (!report.failures.empty()) {
      entry.chain.assign(chain.begin(),
                         chain.begin() + static_cast<ptrdiff_t>(len));
      *failures = report.failures;
      return entry;
    }
  }
  // Only the full chain (under the shared, non-hermetic cache) failed.
  entry.chain = chain;
  return entry;
}

void EmitReproducer(const CorpusEntry& entry,
                    const std::vector<std::string>& failures, int index) {
  std::string repro = FormatReproducer(entry, failures);
  std::fprintf(stderr, "[mutation_fuzz] reproducer:\n%s", repro.c_str());
  if (const char* dir = std::getenv("EADP_FUZZ_REPRO_DIR")) {
    std::string path =
        StrFormat("%s/mutation_fuzz_repro_%d.corpus", dir, index);
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fputs(repro.c_str(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "[mutation_fuzz] cannot write %s\n", path.c_str());
    }
  }
}

TEST(MutationFuzz, SweepAllStrategies) {
  const int budget = FuzzBudget();
  const std::vector<FuzzSeed> pool = FuzzSeedPool();
  PlanCache shared_cache(PlanCacheOptions{.capacity = 4096, .num_shards = 8});
  FuzzOracleOptions oracle;
  oracle.cache = &shared_cache;

  int checked = 0, rejected_rounds = 0, failures_found = 0;
  uint64_t strategies = 0;
  for (uint64_t round = 0; checked < budget; ++round) {
    FuzzSeed seed = SeedAt(pool, round);
    QuerySpec seed_spec = QuerySpec::FromQuery(MaterializeSeed(seed));
    MutationEngine engine(seed_spec.Clone(), 0x6d75746174ull + round);
    int chain_len = 1 + static_cast<int>(round % 4);
    bool stepped = false;
    for (int s = 0; s < chain_len && checked < budget; ++s) {
      if (!engine.Step()) break;
      stepped = true;
      FuzzOracleReport report = CheckMutant(engine.spec().ToQuery(), oracle);
      ++checked;
      strategies += static_cast<uint64_t>(report.strategies_run);
      if (!report.failures.empty()) {
        std::vector<std::string> min_failures = report.failures;
        CorpusEntry repro =
            Minimize(seed, seed_spec, engine.chain(), &min_failures);
        EmitReproducer(repro, min_failures, failures_found);
        ++failures_found;
        for (const std::string& f : min_failures) {
          ADD_FAILURE() << "mutant diverged (minimized to "
                        << repro.chain.size() << " step(s)): " << f;
        }
        if (failures_found >= 5) {
          GTEST_FAIL() << "stopping after 5 minimized divergences";
        }
      }
    }
    if (!stepped) ++rejected_rounds;
  }

  PlanCacheStats stats = shared_cache.Snapshot();
  std::fprintf(stderr,
               "[mutation_fuzz] %d mutants, %llu strategy runs, "
               "%d saturated rounds, cache hit rate %.2f "
               "(%llu hits / %llu misses)\n",
               checked, static_cast<unsigned long long>(strategies),
               rejected_rounds, stats.HitRate(),
               static_cast<unsigned long long>(stats.hits),
               static_cast<unsigned long long>(stats.misses));
  EXPECT_EQ(failures_found, 0);
  EXPECT_GE(checked, budget);
  // The warm-path oracle probes every mutant twice, so the shared cache
  // must have seen genuine hits; a zero hit rate means the warm path
  // never exercised the cache at all.
  EXPECT_GT(stats.hits, 0u);
}

TEST(MutationFuzz, PlanCacheAdversarialStream) {
  // 40 distinct mutants derived from 8 base seeds (1-2 mutation steps
  // each): structurally near-identical, fingerprint-distinct by the
  // mutation contract. The 1000-query stream rotates through them, so
  // ~96% of arrivals are repeats and every repeat's neighbors are
  // near-duplicates — the cross-serving worst case for a fingerprint
  // keyed cache.
  const std::vector<FuzzSeed> pool = FuzzSeedPool();
  std::vector<Query> mutants;
  std::set<std::string> canonicals;
  for (uint64_t round = 0; mutants.size() < 40; ++round) {
    FuzzSeed seed = SeedAt(pool, round * 3 + 1);
    QuerySpec spec = QuerySpec::FromQuery(MaterializeSeed(seed));
    MutationEngine engine(spec.Clone(), 0xcafe + round);
    int steps = 1 + static_cast<int>(round % 2);
    for (int s = 0; s < steps; ++s) engine.Step();
    if (engine.chain().empty()) continue;
    Query q = engine.spec().ToQuery();
    if (q.NumRelations() > 7) continue;  // keep the exec spot-checks cheap
    if (!canonicals.insert(FingerprintQuery(q).canonical).second) continue;
    mutants.push_back(std::move(q));
  }
  ASSERT_EQ(mutants.size(), 40u);

  PlanCache cache(PlanCacheOptions{.capacity = 256, .num_shards = 4});
  OptimizerOptions cached_opts;
  cached_opts.plan_cache = &cache;
  int hits = 0, cross_checked = 0;
  for (int i = 0; i < 1000; ++i) {
    const Query& q = mutants[static_cast<size_t>(i) % mutants.size()];
    OptimizeResult served = PlannerSession(cached_opts).Optimize(q);
    ASSERT_NE(served.plan, nullptr);
    if (!served.stats.cache_hit) continue;
    ++hits;
    // Zero tolerance for cross-serving: the served plan must cost exactly
    // what a fresh optimization of *this* query costs...
    OptimizerOptions fresh_opts;
    OptimizeResult fresh = PlannerSession(fresh_opts).Optimize(q);
    ASSERT_NE(fresh.plan, nullptr);
    ASSERT_EQ(served.plan->cost, fresh.plan->cost)
        << "cache hit served a plan with a different cost than a fresh "
        << "optimization — cross-served entry (query " << i << ")";
    // ...and (spot-checked) produce bit-identical rows to the canonical
    // evaluation.
    if (i % 25 == 0) {
      Database db = GenerateDatabase(q, 11);
      std::string message;
      ASSERT_TRUE(PlanMatchesCanonical(served.plan, q, db, &message))
          << "cache-served plan rows diverge (query " << i << "):\n"
          << message;
      ++cross_checked;
    }
  }

  PlanCacheStats stats = cache.Snapshot();
  // Sanity on the aggregate stats: every probe accounted for, a stream
  // with 96% repeats must hit nearly always after warmup, and this
  // stream's working set (40 << 256) must never evict.
  EXPECT_EQ(stats.hits + stats.misses, 1000u);  // one probe per arrival
  EXPECT_EQ(hits, 960);                         // 1000 - 40 cold misses
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_GT(stats.HitRate(), 0.45);
  EXPECT_GT(cross_checked, 20);
  std::fprintf(stderr,
               "[mutation_fuzz] adversarial stream: %d hits, hit rate "
               "%.3f, %d exec cross-checks\n",
               hits, stats.HitRate(), cross_checked);
}

TEST(MutationFuzz, ReplayFromEnv) {
  const char* line = std::getenv("EADP_FUZZ_REPLAY");
  if (line == nullptr) {
    GTEST_SKIP() << "set EADP_FUZZ_REPLAY='<corpus line>' to replay";
  }
  CorpusEntry entry;
  std::string error;
  ASSERT_TRUE(ParseCorpusEntry(line, &entry, &error)) << error;
  QuerySpec seed_spec = QuerySpec::FromQuery(MaterializeSeed(entry.seed));
  QuerySpec replayed =
      MutationEngine::Replay(seed_spec, entry.chain, entry.chain.size());
  PlanCache cache;
  FuzzOracleOptions oracle;
  oracle.cache = &cache;
  FuzzOracleReport report = CheckMutant(replayed.ToQuery(), oracle);
  for (const std::string& f : report.failures) {
    ADD_FAILURE() << f;
  }
}

TEST(MutationFuzz, EmitCorpus) {
  const char* path = std::getenv("EADP_FUZZ_EMIT_CORPUS");
  if (path == nullptr) {
    GTEST_SKIP() << "set EADP_FUZZ_EMIT_CORPUS=<file> to fold survivors";
  }
  // Structural diversity: one survivor per pool seed (full laps over the
  // pool, so TPC-H, the random-tree presets AND the structured topologies
  // at the pool's tail all contribute), deduplicated by (seed kind,
  // operator multiset) signature.
  const std::vector<FuzzSeed> pool = FuzzSeedPool();
  std::set<std::string> signatures;
  std::vector<CorpusEntry> survivors;
  for (size_t i = 0; i < pool.size(); ++i) {
    for (uint64_t lap = 0; lap < 4; ++lap) {
      uint64_t round = i + lap * pool.size();
      FuzzSeed seed = SeedAt(pool, round);
      QuerySpec seed_spec = QuerySpec::FromQuery(MaterializeSeed(seed));
      MutationEngine engine(seed_spec.Clone(), 0x6d75746174ull + round);
      int chain_len = 2 + static_cast<int>(round % 3);
      for (int s = 0; s < chain_len; ++s) engine.Step();
      if (engine.chain().empty()) continue;
      PlanCache cache;
      FuzzOracleOptions oracle;
      oracle.cache = &cache;
      if (!CheckMutant(engine.spec().ToQuery(), oracle).failures.empty()) {
        continue;  // divergent chains belong to SweepAllStrategies, not here
      }
      std::string sig = seed.kind == "tpch"
                            ? "tpch/" + seed.tpch
                            : StrFormat("gen/%s/%s",
                                        TopologyName(seed.topology),
                                        seed.preset.c_str());
      std::multiset<std::string> ops;
      for (const MutationStep& step : engine.chain()) {
        ops.insert(MutationOpName(step.op));
      }
      for (const std::string& op : ops) sig += "|" + op;
      if (!signatures.insert(sig).second) continue;
      CorpusEntry entry;
      entry.seed = seed;
      entry.chain = engine.chain();
      survivors.push_back(std::move(entry));
      break;  // one survivor per pool seed
    }
  }
  ASSERT_GE(survivors.size(), 10u);
  std::FILE* f = std::fopen(path, "w");
  ASSERT_NE(f, nullptr) << path;
  std::fputs(
      "# Mutation-fuzz regression corpus: structurally distinct survivor\n"
      "# chains folded from mutation_fuzz_test (EmitCorpus). One entry per\n"
      "# line; replayed by mutation_corpus_test (tier-1) and replayable\n"
      "# manually via scripts/fuzz.sh replay '<line>'.\n",
      f);
  for (const CorpusEntry& entry : survivors) {
    std::fprintf(f, "%s\n", FormatCorpusEntry(entry).c_str());
  }
  std::fclose(f);
}

}  // namespace
}  // namespace eadp
