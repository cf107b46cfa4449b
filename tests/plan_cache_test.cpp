// Cross-query plan cache (plangen/plan_cache.h): LRU/eviction semantics,
// forced-collision handling, invalidation, arena liveness past eviction,
// and the differential pin that cached plans are cost-identical and
// validator-clean.

#include "plangen/plan_cache.h"

#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "plangen/plan_validator.h"
#include "plangen/session.h"
#include "queries/fingerprint.h"
#include "queries/query_generator.h"

namespace eadp {
namespace {

Query CorpusQuery(int num_relations, uint64_t seed,
                  QueryTopology topology = QueryTopology::kRandomTree) {
  GeneratorOptions gen;
  gen.num_relations = num_relations;
  gen.topology = topology;
  return GenerateRandomQuery(gen, seed);
}

/// A fingerprint that cannot collide with any real query's: versioned
/// serializations never start with 0xff.
QueryFingerprint SyntheticFingerprint(const std::string& tag) {
  QueryFingerprint fp;
  fp.canonical = std::string("\xff", 1) + tag;
  fp.hash = HashBytes(fp.canonical.data(), fp.canonical.size(), 1);
  fp.hash2 = HashBytes(fp.canonical.data(), fp.canonical.size(), 2);
  return fp;
}

OptimizeResult PlanFresh(const Query& q) {
  OptimizerOptions options;
  return PlannerSession(options).Optimize(q);
}

TEST(PlanCache, MissThenHitServesTheIdenticalPlan) {
  PlanCache cache;
  Query q = CorpusQuery(6, 1);
  QueryFingerprint fp = FingerprintQuery(q);

  EXPECT_EQ(cache.Lookup(fp), nullptr);
  OptimizeResult fresh = PlanFresh(q);
  cache.Insert(fp, fresh);

  PlanCache::Handle hit = cache.Lookup(fp);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->result.plan, fresh.plan);  // the very same arena nodes
  EXPECT_EQ(hit->result.arena, fresh.arena);

  PlanCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.resident_bytes, 0u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST(PlanCache, LruEvictionDropsTheColdestEntry) {
  PlanCacheOptions opts;
  opts.capacity = 3;
  opts.num_shards = 1;  // single shard: global LRU order is observable
  PlanCache cache(opts);
  ASSERT_EQ(cache.capacity(), 3u);

  std::vector<QueryFingerprint> fps;
  OptimizeResult shared = PlanFresh(CorpusQuery(5, 2));
  for (int i = 0; i < 3; ++i) {
    fps.push_back(SyntheticFingerprint("entry" + std::to_string(i)));
    cache.Insert(fps.back(), shared);
  }
  // Touch entry0 so entry1 becomes the LRU victim.
  EXPECT_NE(cache.Lookup(fps[0]), nullptr);
  cache.Insert(SyntheticFingerprint("entry3"), shared);

  EXPECT_EQ(cache.Snapshot().evictions, 1u);
  EXPECT_NE(cache.Lookup(fps[0]), nullptr);
  EXPECT_EQ(cache.Lookup(fps[1]), nullptr);  // evicted
  EXPECT_NE(cache.Lookup(fps[2]), nullptr);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(PlanCache, ForcedHashCollisionsStayStructurallySeparate) {
  // Two structurally different queries whose fingerprints are *forced*
  // onto identical hashes: the canonical-byte comparison must keep them
  // apart — each probe returns its own plan, never the colliding one.
  PlanCacheOptions opts;
  opts.num_shards = 1;
  PlanCache cache(opts);

  Query qa = CorpusQuery(5, 10);
  Query qb = CorpusQuery(7, 11);
  QueryFingerprint fa = FingerprintQuery(qa);
  QueryFingerprint fb = FingerprintQuery(qb);
  ASSERT_FALSE(fa.Matches(fb));
  fb.hash = fa.hash;    // same shard, same bucket chain
  fb.hash2 = fa.hash2;  // defeat the cheap pre-filter too

  OptimizeResult ra = PlanFresh(qa);
  OptimizeResult rb = PlanFresh(qb);
  cache.Insert(fa, ra);
  cache.Insert(fb, rb);
  EXPECT_EQ(cache.Snapshot().entries, 2u);

  PlanCache::Handle ha = cache.Lookup(fa);
  PlanCache::Handle hb = cache.Lookup(fb);
  ASSERT_NE(ha, nullptr);
  ASSERT_NE(hb, nullptr);
  EXPECT_EQ(ha->result.plan, ra.plan);
  EXPECT_EQ(hb->result.plan, rb.plan);
  EXPECT_NE(ha->result.plan, hb->result.plan);
}

TEST(PlanCache, DuplicateInsertIsFirstWriterWins) {
  PlanCache cache;
  Query q = CorpusQuery(6, 3);
  QueryFingerprint fp = FingerprintQuery(q);
  OptimizeResult first = PlanFresh(q);
  OptimizeResult second = PlanFresh(q);
  ASSERT_NE(first.plan, second.plan);  // distinct arenas, equal costs

  PlanCache::Handle h1 = cache.Insert(fp, first);
  PlanCache::Handle h2 = cache.Insert(fp, second);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h2->result.plan, first.plan);
  PlanCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.duplicate_inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PlanCache, CatalogChangeRewritesTheFingerprint) {
  // Statistics changes make stale entries unreachable (a new fingerprint)
  // rather than wrong; Invalidate() is what actually frees them.
  PlanCache cache;
  Query q = CorpusQuery(6, 4);
  QueryFingerprint before = FingerprintQuery(q);
  cache.Insert(before, PlanFresh(q));

  Catalog* catalog = q.mutable_catalog();
  // Simulate ANALYZE doubling a relation's row estimate.
  int rel = 0;
  double new_card = catalog->relation(rel).cardinality * 2;
  Catalog updated;
  for (int r = 0; r < catalog->num_relations(); ++r) {
    updated.AddRelation(catalog->relation(r).name,
                        r == rel ? new_card : catalog->relation(r).cardinality);
  }
  for (int a = 0; a < catalog->num_attributes(); ++a) {
    updated.AddAttribute(catalog->attribute(a).relation,
                         catalog->attribute(a).name,
                         catalog->attribute(a).distinct);
  }
  for (int r = 0; r < catalog->num_relations(); ++r) {
    for (const AttrSet& key : catalog->relation(r).keys) {
      updated.DeclareKey(r, key);
    }
  }
  *catalog = updated;

  QueryFingerprint after = FingerprintQuery(q);
  EXPECT_FALSE(before.Matches(after));
  EXPECT_EQ(cache.Lookup(after), nullptr);
  EXPECT_NE(cache.Lookup(before), nullptr);  // stale but reachable only by
                                             // the stale fingerprint

  cache.Invalidate();
  EXPECT_EQ(cache.Lookup(before), nullptr);
  PlanCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.resident_bytes, 0u);
}

TEST(PlanCache, HandleKeepsArenaAliveAcrossEviction) {
  // The eviction race: a served plan must outlive its entry. Capacity 1
  // guarantees the insert below evicts the looked-up entry; the handle
  // (and the OptimizeResult copied from it) must stay fully usable —
  // ASan turns any dangling arena access into a hard failure.
  PlanCacheOptions opts;
  opts.capacity = 1;
  opts.num_shards = 1;
  PlanCache cache(opts);

  Query q = CorpusQuery(7, 5);
  QueryFingerprint fp = FingerprintQuery(q);
  OptimizeResult fresh = PlanFresh(q);
  double want_cost = fresh.plan->cost;
  cache.Insert(fp, std::move(fresh));

  PlanCache::Handle handle = cache.Lookup(fp);
  ASSERT_NE(handle, nullptr);
  OptimizeResult served = handle->result;  // copies the arena shared_ptr

  cache.Insert(SyntheticFingerprint("evictor"), PlanFresh(CorpusQuery(5, 6)));
  ASSERT_EQ(cache.Lookup(fp), nullptr);  // evicted
  EXPECT_EQ(cache.Snapshot().evictions, 1u);

  // Full deep use of the evicted entry through both liveness paths.
  EXPECT_EQ(handle->result.plan->cost, want_cost);
  handle.reset();  // the copied OptimizeResult alone must suffice now
  EXPECT_EQ(served.plan->cost, want_cost);
  EXPECT_TRUE(ValidatePlan(served.plan, q).empty());
  EXPECT_GT(served.plan->NodeCount(), 0);
}

TEST(PlanCache, ShardAndCapacityRounding) {
  PlanCacheOptions opts;
  opts.capacity = 10;
  opts.num_shards = 6;
  PlanCache cache(opts);
  EXPECT_EQ(cache.num_shards(), 8);       // power-of-two rounding
  EXPECT_EQ(cache.capacity(), 16u);       // ceil(10/8) per shard * 8

  PlanCacheOptions tiny;
  tiny.capacity = 0;
  tiny.num_shards = 0;
  PlanCache floor(tiny);
  EXPECT_EQ(floor.num_shards(), 1);
  EXPECT_EQ(floor.capacity(), 1u);
}

TEST(PlanCache, AdaptiveFacadeDifferential) {
  // The acceptance pin: with the cache enabled, every plan — cold (miss +
  // populate) and warm (served) — is bit-identical in cost to the
  // cache-off run, and served plans are validator-clean.
  PlanCache cache;
  OptimizerOptions cache_off;
  OptimizerOptions cache_on;
  cache_on.plan_cache = &cache;

  std::vector<Query> corpus;
  for (int n = 3; n <= 9; ++n) {
    for (uint64_t seed = 0; seed < 4; ++seed) {
      corpus.push_back(CorpusQuery(n, seed));
    }
  }
  // Past the exact-DP threshold too: the facade's race result is cached
  // the same way.
  corpus.push_back(CorpusQuery(16, 0, QueryTopology::kChain));
  corpus.push_back(CorpusQuery(16, 0, QueryTopology::kStar));

  for (const Query& q : corpus) {
    OptimizeResult reference = PlannerSession(cache_off).Optimize(q);
    OptimizeResult cold = PlannerSession(cache_on).Optimize(q);
    OptimizeResult warm = PlannerSession(cache_on).Optimize(q);
    ASSERT_NE(reference.plan, nullptr);
    EXPECT_FALSE(cold.stats.cache_hit);
    EXPECT_TRUE(warm.stats.cache_hit);
    EXPECT_EQ(cold.plan->cost, reference.plan->cost);
    EXPECT_EQ(warm.plan->cost, reference.plan->cost);
    EXPECT_EQ(warm.plan, cold.plan);  // served from the cold run's arena
    EXPECT_EQ(warm.stats.algorithm, reference.stats.algorithm);
    EXPECT_TRUE(ValidatePlan(warm.plan, q).empty());
  }
  PlanCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.hits, corpus.size());
  EXPECT_EQ(stats.misses, corpus.size());
  EXPECT_EQ(stats.inserts, corpus.size());
}

TEST(PlanCache, MixedOptionConfigurationsNeverCrossServe) {
  // The cache key covers the planning-relevant option knobs: the same
  // query under different configurations occupies distinct entries, so a
  // shared cache can serve heterogeneous traffic without handing a
  // pruning-ablated (or different-algorithm) plan to a default probe.
  PlanCache cache;
  Query q = CorpusQuery(8, 12);

  OptimizerOptions defaults;
  defaults.plan_cache = &cache;
  OptimizerOptions baseline = defaults;
  baseline.algorithm = Algorithm::kDphyp;  // no eager aggregation: the
                                           // costs genuinely differ

  OptimizerOptions off_a, off_b;
  off_b.algorithm = Algorithm::kDphyp;
  double want_default = PlannerSession(off_a).Optimize(q).plan->cost;
  double want_baseline = PlannerSession(off_b).Optimize(q).plan->cost;

  // Interleave cold and warm probes of both configurations.
  EXPECT_EQ(PlannerSession(defaults).Optimize(q).plan->cost, want_default);
  EXPECT_EQ(PlannerSession(baseline).Optimize(q).plan->cost, want_baseline);
  OptimizeResult warm_default = PlannerSession(defaults).Optimize(q);
  OptimizeResult warm_baseline = PlannerSession(baseline).Optimize(q);
  EXPECT_TRUE(warm_default.stats.cache_hit);
  EXPECT_TRUE(warm_baseline.stats.cache_hit);
  EXPECT_EQ(warm_default.plan->cost, want_default);
  EXPECT_EQ(warm_baseline.plan->cost, want_baseline);
  EXPECT_EQ(cache.Snapshot().entries, 2u);
}

TEST(PlanCache, EveryKnobSplitsTheKeyAndNoContextFieldDoes) {
  // The fold in FoldOptionsIntoFingerprint must cover every PlannerKnobs
  // field: its sizeof tripwire catches an added field, this catches one
  // dropped from the fold. Execution context — the DP worker count and
  // pool, cache pointers, serving policy — must leave the key alone.
  static_assert(sizeof(PlannerKnobs) == 32,
                "PlannerKnobs changed: add the new knob to the list below");
  using Mutation = void (*)(PlannerKnobs*);
  const std::vector<std::pair<const char*, Mutation>> knobs = {
      {"algorithm", [](PlannerKnobs* k) { k->algorithm = Algorithm::kH2; }},
      {"h2_tolerance", [](PlannerKnobs* k) { k->h2_tolerance = 1.5; }},
      {"top_grouping_elimination",
       [](PlannerKnobs* k) { k->top_grouping_elimination = false; }},
      {"prune_without_keys",
       [](PlannerKnobs* k) { k->prune_without_keys = true; }},
      {"prune_without_cardinality",
       [](PlannerKnobs* k) { k->prune_without_cardinality = true; }},
      {"full_fd_dominance",
       [](PlannerKnobs* k) { k->full_fd_dominance = true; }},
      {"adaptive_exact_relations",
       [](PlannerKnobs* k) { k->adaptive_exact_relations = 9; }},
      {"idp_block_size", [](PlannerKnobs* k) { k->idp_block_size = 4; }},
  };
  Query q = CorpusQuery(6, 3);
  const PlanCacheSplitKey base = PlanCacheKeySplit(q, PlannerKnobs{});
  for (const auto& [name, mutate] : knobs) {
    PlannerKnobs changed;
    mutate(&changed);
    PlanCacheSplitKey key = PlanCacheKeySplit(q, changed);
    EXPECT_NE(key.structural.canonical, base.structural.canonical) << name;
    EXPECT_TRUE(SameStats(key.overlay, base.overlay)) << name;
  }

  PlanCache cache;
  ThreadPool pool(1);
  OptimizerOptions context;
  context.dp_threads = 4;
  context.dp_pool = &pool;
  context.plan_cache = &cache;
  context.drift_tolerance = 0.5;
  context.replan_pool = &pool;
  PlanCacheSplitKey key = PlanCacheKeySplit(q, context);
  EXPECT_EQ(key.structural.canonical, base.structural.canonical);
  EXPECT_EQ(key.structural.hash, base.structural.hash);
  EXPECT_EQ(key.structural.hash2, base.structural.hash2);
}

TEST(PlanCache, UnsatisfiableResultsAreNotCached) {
  PlanCache cache;
  OptimizerOptions options;
  options.plan_cache = &cache;
  // A satisfiable query planned through the cache inserts exactly once;
  // the null-plan guard is exercised structurally (no natural
  // unsatisfiable query exists in the generated workload, so pin the
  // invariant that inserts == satisfiable plans).
  Query q = CorpusQuery(5, 9);
  OptimizeResult r = PlannerSession(options).Optimize(q);
  ASSERT_NE(r.plan, nullptr);
  EXPECT_EQ(cache.Snapshot().inserts, 1u);
}

}  // namespace
}  // namespace eadp
