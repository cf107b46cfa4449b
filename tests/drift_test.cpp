// Statistics-drift pins for the layered fingerprint + incremental
// re-optimization stack (DESIGN.md §14):
//
//   * differential re-cost — RecostPlan under unchanged statistics is
//     bit-identical to the plan's stored cost/cardinality annotations,
//     across the operator mixes and topologies the generators produce;
//   * DriftCostScale — 1 on bit-equal overlays, in (0, 1) under drift,
//     0 across structural classes;
//   * PR 8 parity — with unchanged statistics the drift-aware facade is
//     observationally identical to the stats-keyed tiered cache: same
//     hits/misses, same tier attribution, bit-identical served costs,
//     zero drift counters;
//   * the drifting stream — a seeded 1000-query Zipf stream with gentle
//     cardinality drift: >= 70% of drifted hits are served via re-cost
//     (full re-plans avoided), and the end-of-stream plan quality is
//     bit-identical to an always-re-plan baseline;
//   * inline and background re-planning — zero tolerance re-plans
//     drifted hits inline (fresh costs, entry refreshed); with a pool
//     the stale plan serves immediately and the refreshed entry later
//     turns probes into exact hits;
//   * the disk tier — drifted L2 hits re-plan under zero tolerance and
//     re-cost-serve under a generous one;
//   * the bounded re-plan — Optimize under a cost bound (the re-costed
//     pre-drift optimum, the exact optimum, just below it, +inf) returns
//     the unbounded run's plan bytes while building no more plans, and
//     the heuristics and large-query strategies ignore the bound.

#include <dirent.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "cost/recost.h"
#include "plangen/persistent_cache.h"
#include "plangen/plan_cache.h"
#include "plangen/plan_explain.h"
#include "plangen/plangen.h"
#include "plangen/session.h"
#include "queries/fingerprint.h"
#include "queries/mutation.h"
#include "queries/query_generator.h"
#include "queries/tpch.h"
#include "tests/test_util.h"

namespace eadp {
namespace {

Query MakeQuery(int n, uint64_t seed) {
  GeneratorOptions gen;
  gen.num_relations = n;
  return GenerateRandomQuery(gen, seed);
}

/// Gentle drift for the stream test: scales one relation's cardinality by
/// a few percent and repairs its attributes' distinct counts the same way
/// ApplyStatsDrift does (keys keep distinct == cardinality). Small moves
/// keep the re-costed plan inside a moderate tolerance band — the regime
/// the re-cost path exists for; ApplyStatsDrift's 0.2–5x swings model
/// stale-statistics cliffs and are exercised by the fuzz oracle instead.
void DriftGently(Catalog* catalog, Rng* rng) {
  int r = static_cast<int>(rng->UniformInt(0, catalog->num_relations() - 1));
  const RelationDef& rel = catalog->relation(r);
  double card =
      std::max(2.0, rel.cardinality * rng->UniformDouble(0.96, 1.04));
  if (card == rel.cardinality) card += 1.0;
  AttrSet key_attrs;
  for (const AttrSet& key : rel.keys) key_attrs.UnionWith(key);
  catalog->SetCardinality(r, card);
  for (int a : BitsOf(rel.attributes)) {
    double distinct = key_attrs.Contains(a)
                          ? card
                          : std::min(catalog->DistinctOf(a), card);
    catalog->SetDistinct(a, distinct);
  }
}

// ---------------------------------------------------------------------------
// Re-cost differential: unchanged statistics reproduce the annotations.
// ---------------------------------------------------------------------------

TEST(Recost, BitIdenticalUnderUnchangedStats) {
  for (int n = 2; n <= 8; ++n) {
    for (uint64_t seed = 0; seed < 6; ++seed) {
      Query q = MakeQuery(n, seed);
      OptimizerOptions options;
      OptimizeResult r = PlannerSession(options).Optimize(q);
      ASSERT_NE(r.plan, nullptr) << "n=" << n << " seed=" << seed;
      RecostResult rc = RecostPlan(r.plan, q);
      EXPECT_TRUE(rc.ok) << "n=" << n << " seed=" << seed;
      EXPECT_EQ(rc.cost, r.plan->cost) << "n=" << n << " seed=" << seed;
      EXPECT_EQ(rc.cardinality, r.plan->cardinality)
          << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(Recost, BitIdenticalAcrossMixesAndTopologies) {
  std::vector<Query> corpus;
  corpus.push_back(GenerateRandomQuery(OuterHeavyOptions(6), 3));
  corpus.push_back(GenerateRandomQuery(OuterHeavyOptions(7), 9));
  for (QueryTopology t : {QueryTopology::kClique, QueryTopology::kCycle,
                          QueryTopology::kSnowflake}) {
    GeneratorOptions gen;
    gen.topology = t;
    gen.num_relations = 12;
    corpus.push_back(GenerateRandomQuery(gen, 21));
  }
  {
    GeneratorOptions gen;
    gen.topology = QueryTopology::kClique;
    gen.num_relations = 10;
    gen.per_edge_predicates = true;
    corpus.push_back(GenerateRandomQuery(gen, 4));
  }
  for (size_t i = 0; i < corpus.size(); ++i) {
    OptimizerOptions options;
    OptimizeResult r = PlannerSession(options).Optimize(corpus[i]);
    ASSERT_NE(r.plan, nullptr) << "query " << i;
    RecostResult rc = RecostPlan(r.plan, corpus[i]);
    EXPECT_TRUE(rc.ok) << "query " << i;
    EXPECT_EQ(rc.cost, r.plan->cost) << "query " << i;
    EXPECT_EQ(rc.cardinality, r.plan->cardinality) << "query " << i;
  }
}

TEST(Recost, TracksACardinalityChange) {
  Query q = MakeQuery(5, 11);
  OptimizerOptions options;
  OptimizeResult r = PlannerSession(options).Optimize(q);
  ASSERT_NE(r.plan, nullptr);

  // Doubling SOME relation's cardinality must move the re-costed root
  // cost (a single relation can hide behind key caps or a dup-free
  // grouping, so scan them all), and the re-cost must be deterministic.
  bool moved = false;
  for (int rel = 0; rel < q.NumRelations(); ++rel) {
    QuerySpec spec = QuerySpec::FromQuery(q);
    spec.catalog.SetCardinality(
        rel, spec.catalog.relation(rel).cardinality * 2);
    Query drifted = spec.ToQuery();
    RecostResult rc = RecostPlan(r.plan, drifted);
    ASSERT_TRUE(rc.ok) << "relation " << rel;
    RecostResult again = RecostPlan(r.plan, drifted);
    EXPECT_EQ(rc.cost, again.cost) << "relation " << rel;
    moved |= rc.cost != r.plan->cost;
  }
  EXPECT_TRUE(moved);
}

TEST(DriftCostScale, BoundsAndIdentity) {
  Query q = MakeQuery(5, 2);
  OptimizerOptions options;
  StatsOverlay base = PlanCacheKeySplit(q, options).overlay;
  EXPECT_EQ(DriftCostScale(base, base), 1.0);

  QuerySpec spec = QuerySpec::FromQuery(q);
  spec.catalog.SetCardinality(1, spec.catalog.relation(1).cardinality * 4);
  StatsOverlay moved = PlanCacheKeySplit(spec.ToQuery(), options).overlay;
  double scale = DriftCostScale(base, moved);
  EXPECT_GT(scale, 0.0);
  EXPECT_LT(scale, 1.0);
  // Symmetric: min(r, 1/r) is direction-free.
  EXPECT_EQ(scale, DriftCostScale(moved, base));

  // Different structural class (different shape vectors) -> 0.
  StatsOverlay other = PlanCacheKeySplit(MakeQuery(4, 2), options).overlay;
  EXPECT_EQ(DriftCostScale(base, other), 0.0);
}

// ---------------------------------------------------------------------------
// PR 8 parity: unchanged statistics are observationally identical to the
// stats-keyed facade.
// ---------------------------------------------------------------------------

TEST(Drift, UnchangedStatsBehaveLikeTheTieredCache) {
  PlanCache cache;
  OptimizerOptions off;
  OptimizerOptions on;
  on.plan_cache = &cache;
  const int kQueries = 20;
  for (int i = 0; i < kQueries; ++i) {
    Query q = MakeQuery(3 + i % 5, 100 + static_cast<uint64_t>(i));
    OptimizeResult fresh = PlannerSession(off).Optimize(q);
    ASSERT_NE(fresh.plan, nullptr);
    OptimizeResult cold = PlannerSession(on).Optimize(q);
    EXPECT_FALSE(cold.stats.cache_hit);
    OptimizeResult warm = PlannerSession(on).Optimize(q);
    EXPECT_TRUE(warm.stats.cache_hit);
    EXPECT_EQ(warm.stats.cache_tier, 1);
    EXPECT_FALSE(warm.stats.replan_avoided);
    EXPECT_FALSE(warm.stats.replan_background);
    EXPECT_EQ(warm.plan->cost, fresh.plan->cost);
    EXPECT_EQ(PlanToJson(warm.plan, q.catalog()),
              PlanToJson(fresh.plan, q.catalog()));
  }
  PlanCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(stats.misses, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(stats.inserts, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(stats.drift_hits, 0u);
  EXPECT_EQ(stats.replans_avoided, 0u);
  EXPECT_EQ(stats.replans_background, 0u);
  EXPECT_EQ(stats.refreshes, 0u);
}

// A catalog copy (fresh catalog_id, same statistics) must still be an
// exact hit: overlay equality falls back to content comparison, so
// re-materialized queries do not masquerade as drift.
TEST(Drift, RematerializedQueryIsAnExactHit) {
  PlanCache cache;
  OptimizerOptions on;
  on.plan_cache = &cache;
  Query q = MakeQuery(5, 77);
  QuerySpec spec = QuerySpec::FromQuery(q);
  PlannerSession(on).Optimize(q);
  OptimizeResult warm = PlannerSession(on).Optimize(spec.ToQuery());
  EXPECT_TRUE(warm.stats.cache_hit);
  EXPECT_FALSE(warm.stats.replan_avoided);
  EXPECT_EQ(cache.Snapshot().drift_hits, 0u);
}

// ---------------------------------------------------------------------------
// Inline re-plan (zero tolerance) and re-cost serving (tolerance band).
// ---------------------------------------------------------------------------

TEST(Drift, ZeroToleranceReplansInlineAndRefreshes) {
  PlanCache cache;
  OptimizerOptions off;
  OptimizerOptions on;
  on.plan_cache = &cache;
  Query q = MakeQuery(6, 5);
  QuerySpec spec = QuerySpec::FromQuery(q);
  PlannerSession(on).Optimize(q);

  Rng rng(99);
  DriftGently(&spec.catalog, &rng);
  Query drifted = spec.ToQuery();
  OptimizeResult fresh = PlannerSession(off).Optimize(drifted);
  ASSERT_NE(fresh.plan, nullptr);
  OptimizeResult replanned = PlannerSession(on).Optimize(drifted);
  EXPECT_FALSE(replanned.stats.cache_hit);
  EXPECT_FALSE(replanned.stats.replan_avoided);
  EXPECT_EQ(replanned.plan->cost, fresh.plan->cost);

  PlanCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.drift_hits, 1u);
  EXPECT_EQ(stats.replans_avoided, 0u);
  EXPECT_EQ(stats.refreshes, 1u);
  EXPECT_EQ(stats.entries, 1u);  // refreshed in place, not duplicated

  // The refreshed entry now carries the drifted overlay: next probe is an
  // exact hit at the fresh cost.
  OptimizeResult warm = PlannerSession(on).Optimize(drifted);
  EXPECT_TRUE(warm.stats.cache_hit);
  EXPECT_EQ(warm.stats.cache_tier, 1);
  EXPECT_EQ(warm.plan->cost, fresh.plan->cost);
  EXPECT_EQ(cache.Snapshot().drift_hits, 1u);
}

TEST(Drift, ToleranceBandServesTheRecostedPlan) {
  PlanCache cache;
  OptimizerOptions on;
  on.plan_cache = &cache;
  Query q = MakeQuery(6, 8);
  QuerySpec spec = QuerySpec::FromQuery(q);
  OptimizeResult cold = PlannerSession(on).Optimize(q);
  ASSERT_NE(cold.plan, nullptr);

  Rng rng(3);
  DriftGently(&spec.catalog, &rng);
  Query drifted = spec.ToQuery();

  OptimizerOptions tolerant = on;
  tolerant.drift_tolerance = 1e9;  // any re-costable plan serves
  OptimizeResult served = PlannerSession(tolerant).Optimize(drifted);
  EXPECT_TRUE(served.stats.cache_hit);
  EXPECT_TRUE(served.stats.replan_avoided);
  EXPECT_FALSE(served.stats.replan_background);
  EXPECT_EQ(served.stats.cache_tier, 1);
  // The served result is the cached plan; its re-costed cost under the
  // drifted catalog is reported alongside.
  EXPECT_EQ(served.plan->cost, cold.plan->cost);
  RecostResult rc = RecostPlan(cold.plan, drifted);
  ASSERT_TRUE(rc.ok);
  EXPECT_EQ(served.stats.recosted_cost, rc.cost);

  PlanCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.drift_hits, 1u);
  EXPECT_EQ(stats.replans_avoided, 1u);
  EXPECT_EQ(stats.refreshes, 0u);  // avoided = no refresh
}

TEST(Drift, BackgroundReplanServesStaleThenSwapsIn) {
  PlanCache cache;
  ThreadPool pool(2);
  OptimizerOptions off;
  OptimizerOptions on;
  on.plan_cache = &cache;
  on.replan_pool = &pool;  // zero tolerance: every drifted hit re-plans

  Query q = MakeQuery(6, 13);
  QuerySpec spec = QuerySpec::FromQuery(q);
  OptimizeResult cold = PlannerSession(on).Optimize(q);
  ASSERT_NE(cold.plan, nullptr);

  Rng rng(7);
  DriftGently(&spec.catalog, &rng);
  Query drifted = spec.ToQuery();
  OptimizeResult fresh = PlannerSession(off).Optimize(drifted);
  ASSERT_NE(fresh.plan, nullptr);

  OptimizeResult served = PlannerSession(on).Optimize(drifted);
  EXPECT_TRUE(served.stats.cache_hit);
  EXPECT_TRUE(served.stats.replan_background);
  EXPECT_FALSE(served.stats.replan_avoided);
  EXPECT_EQ(served.plan->cost, cold.plan->cost);  // stale plan serves now

  // The background re-plan lands via Refresh; poll with a deadline.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (cache.Snapshot().refreshes == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  PlanCacheStats stats = cache.Snapshot();
  ASSERT_EQ(stats.refreshes, 1u);
  EXPECT_EQ(stats.replans_background, 1u);

  OptimizeResult warm = PlannerSession(on).Optimize(drifted);
  EXPECT_TRUE(warm.stats.cache_hit);
  EXPECT_FALSE(warm.stats.replan_background);
  EXPECT_EQ(warm.stats.cache_tier, 1);
  EXPECT_EQ(warm.plan->cost, fresh.plan->cost);
}

// ---------------------------------------------------------------------------
// Bounded re-plan (DESIGN.md §14): a cost bound never changes the plan.
// ---------------------------------------------------------------------------

/// The generator corpus (n = 3..9) and the TPC-H skeletons, each paired
/// with a drifted twin: same structure, statistics moved by
/// ApplyStatsDrift's 0.2-5x swings.
struct DriftPair {
  std::string label;
  Query before;
  Query after;
};

std::vector<DriftPair> BoundedPinCorpus() {
  std::vector<Query> queries;
  for (int n = 3; n <= 9; ++n) {
    for (uint64_t seed = 0; seed < 3; ++seed) {
      queries.push_back(MakeQuery(n, 40 + seed));
    }
  }
  for (Query (*make)() : {&MakeTpchEx, &MakeTpchQ1, &MakeTpchQ3, &MakeTpchQ5,
                          &MakeTpchQ10, &MakeTpchQ18}) {
    queries.push_back(make());
  }
  std::vector<DriftPair> corpus;
  Rng rng(2015);
  for (size_t i = 0; i < queries.size(); ++i) {
    QuerySpec spec = QuerySpec::FromQuery(queries[i]);
    while (!ApplyStatsDrift(&spec.catalog, &rng)) {
    }
    corpus.push_back({"query " + std::to_string(i), std::move(queries[i]),
                      spec.ToQuery()});
  }
  return corpus;
}

TEST(BoundedReplan, ExactGeneratorsReturnTheUnboundedPlan) {
  ThreadPool dp_pool(3);
  for (const DriftPair& pair : BoundedPinCorpus()) {
    for (Algorithm algorithm :
         {Algorithm::kDphyp, Algorithm::kEaAll, Algorithm::kEaPrune}) {
      for (int threads : {1, 4}) {
        OptimizerOptions options;
        options.algorithm = algorithm;
        options.dp_threads = threads;
        options.dp_pool = &dp_pool;
        std::string label = pair.label + " " + AlgorithmName(algorithm) +
                            " threads=" + std::to_string(threads);
        OptimizeResult cached = Optimize(pair.before, options);
        OptimizeResult unbounded = Optimize(pair.after, options);
        ASSERT_NE(cached.plan, nullptr) << label;
        ASSERT_NE(unbounded.plan, nullptr) << label;
        RecostResult rc = RecostPlan(cached.plan, pair.after);
        ASSERT_TRUE(rc.ok) << label;
        const double optimum = unbounded.plan->cost;
        const std::string want = PlanOnlyBytes(unbounded);
        for (double bound : {rc.cost, optimum, std::nextafter(optimum, 0.0),
                             kNoCostBound}) {
          OptimizeResult bounded = Optimize(pair.after, options, bound);
          ASSERT_NE(bounded.plan, nullptr) << label << " bound=" << bound;
          EXPECT_EQ(PlanOnlyBytes(bounded), want)
              << label << " bound=" << bound;
          EXPECT_LE(bounded.stats.plans_built, unbounded.stats.plans_built)
              << label << " bound=" << bound;
        }
      }
    }
  }
}

TEST(BoundedReplan, HeuristicsAndLargeQueryStrategiesIgnoreTheBound) {
  for (const DriftPair& pair : BoundedPinCorpus()) {
    for (Algorithm algorithm : {Algorithm::kH1, Algorithm::kH2,
                                Algorithm::kGoo, Algorithm::kIdp}) {
      OptimizerOptions options;
      options.algorithm = algorithm;
      std::string label = pair.label + " " + AlgorithmName(algorithm);
      OptimizeResult unbounded = Optimize(pair.after, options);
      ASSERT_NE(unbounded.plan, nullptr) << label;
      const double cost = unbounded.plan->cost;
      for (double bound : {cost, std::nextafter(cost, 0.0), 0.0}) {
        OptimizeResult bounded = Optimize(pair.after, options, bound);
        EXPECT_EQ(PlanOnlyBytes(bounded), PlanOnlyBytes(unbounded))
            << label << " bound=" << bound;
        EXPECT_EQ(bounded.stats.plans_built, unbounded.stats.plans_built)
            << label << " bound=" << bound;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The drifting stream: re-plans avoided at equal final plan quality.
// ---------------------------------------------------------------------------

TEST(Drift, StreamAvoidsReplansAtEqualFinalQuality) {
  // A pool of query shapes probed 1000 times with Zipf popularity; ~3% of
  // arrivals are preceded by a gentle statistics drift on the arriving
  // shape. Two caches consume the identical stream: the tolerant one may
  // serve drifted hits via re-cost, the strict one re-plans every drifted
  // hit (the PR 8 baseline behavior).
  const int kShapes = 12;
  const int kEvents = 1000;
  std::vector<QuerySpec> specs;
  for (int i = 0; i < kShapes; ++i) {
    specs.push_back(QuerySpec::FromQuery(
        MakeQuery(4 + i % 3, 500 + static_cast<uint64_t>(i))));
  }
  std::vector<double> weights;
  for (int i = 0; i < kShapes; ++i) {
    weights.push_back(1.0 / std::pow(static_cast<double>(i + 1), 1.1));
  }

  PlanCache tolerant_cache;
  PlanCache strict_cache;
  OptimizerOptions tolerant;
  tolerant.plan_cache = &tolerant_cache;
  tolerant.drift_tolerance = 0.5;
  OptimizerOptions strict;
  strict.plan_cache = &strict_cache;

  Rng rng(2024);
  for (int e = 0; e < kEvents; ++e) {
    int s = rng.PickWeighted(weights.data(), kShapes);
    if (rng.Bernoulli(0.03)) {
      DriftGently(&specs[static_cast<size_t>(s)].catalog, &rng);
    }
    Query q = specs[static_cast<size_t>(s)].ToQuery();
    OptimizeResult a = PlannerSession(tolerant).Optimize(q);
    OptimizeResult b = PlannerSession(strict).Optimize(q);
    ASSERT_NE(a.plan, nullptr) << "event " << e;
    ASSERT_NE(b.plan, nullptr) << "event " << e;
  }

  PlanCacheStats ts = tolerant_cache.Snapshot();
  PlanCacheStats ss = strict_cache.Snapshot();
  ASSERT_GT(ts.drift_hits, 0u);
  ASSERT_GT(ss.drift_hits, 0u);
  EXPECT_EQ(ss.replans_avoided, 0u);  // strict run never serves drifted
  // >= 70% of the tolerant run's drifted hits were served without a full
  // re-plan...
  EXPECT_GE(static_cast<double>(ts.replans_avoided),
            0.7 * static_cast<double>(ts.drift_hits))
      << "avoided " << ts.replans_avoided << " of " << ts.drift_hits
      << " drifted hits";
  // ... and the tolerant run did strictly fewer full re-plans than the
  // always-re-plan baseline (its refreshes are its inline re-plans).
  EXPECT_LT(ts.refreshes, ss.refreshes);

  // Equal final plan quality: once drift quiesces, a strict probe of
  // every shape yields costs bit-identical to a fresh uncached
  // optimization under the final statistics — serving within the band
  // never corrupted either cache.
  OptimizerOptions off;
  OptimizerOptions tolerant_final = tolerant;
  tolerant_final.drift_tolerance = 0;
  for (int s = 0; s < kShapes; ++s) {
    Query q = specs[static_cast<size_t>(s)].ToQuery();
    OptimizeResult fresh = PlannerSession(off).Optimize(q);
    ASSERT_NE(fresh.plan, nullptr);
    OptimizeResult a = PlannerSession(tolerant_final).Optimize(q);
    OptimizeResult b = PlannerSession(strict).Optimize(q);
    EXPECT_EQ(a.plan->cost, fresh.plan->cost) << "shape " << s;
    EXPECT_EQ(b.plan->cost, fresh.plan->cost) << "shape " << s;
    EXPECT_EQ(a.plan->cardinality, fresh.plan->cardinality) << "shape " << s;
    EXPECT_EQ(b.plan->cardinality, fresh.plan->cardinality) << "shape " << s;
  }
}

// ---------------------------------------------------------------------------
// The disk tier under drift.
// ---------------------------------------------------------------------------

class TempDir {
 public:
  TempDir() {
    char buf[] = "/tmp/eadp_drift_XXXXXX";
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

TEST(Drift, DiskTierRecostsOrReplansDriftedHits) {
  TempDir dir;
  Query q = MakeQuery(5, 31);
  QuerySpec spec = QuerySpec::FromQuery(q);
  OptimizerOptions off;
  OptimizeResult original;

  {
    PersistentCacheOptions popts;
    popts.directory = dir.path();
    std::string error;
    auto disk = PersistentPlanCache::Open(popts, &error);
    ASSERT_NE(disk, nullptr) << error;
    OptimizerOptions on;
    on.persistent_cache = disk.get();
    original = PlannerSession(on).Optimize(q);  // populates the disk tier
    ASSERT_NE(original.plan, nullptr);
  }

  Rng rng(17);
  DriftGently(&spec.catalog, &rng);
  Query drifted = spec.ToQuery();
  OptimizeResult fresh = PlannerSession(off).Optimize(drifted);
  ASSERT_NE(fresh.plan, nullptr);

  // Cold process, generous tolerance: the drifted disk hit re-cost-serves
  // the stored (stale) plan and reports tier 2. (This must run BEFORE the
  // strict probe: an inline re-plan writes behind to disk, and the
  // newest-wins record would then match the drifted statistics exactly.)
  {
    PersistentCacheOptions popts;
    popts.directory = dir.path();
    std::string error;
    auto disk = PersistentPlanCache::Open(popts, &error);
    ASSERT_NE(disk, nullptr) << error;
    PlanCache l1;
    OptimizerOptions on;
    on.plan_cache = &l1;
    on.persistent_cache = disk.get();
    on.drift_tolerance = 1e9;
    OptimizeResult served = PlannerSession(on).Optimize(drifted);
    EXPECT_TRUE(served.stats.cache_hit);
    EXPECT_TRUE(served.stats.replan_avoided);
    EXPECT_EQ(served.stats.cache_tier, 2);
    EXPECT_EQ(served.plan->cost, original.plan->cost);
  }

  // Cold process, strict tolerance: the drifted disk hit must re-plan.
  {
    PersistentCacheOptions popts;
    popts.directory = dir.path();
    std::string error;
    auto disk = PersistentPlanCache::Open(popts, &error);
    ASSERT_NE(disk, nullptr) << error;
    PlanCache l1;
    OptimizerOptions on;
    on.plan_cache = &l1;
    on.persistent_cache = disk.get();
    OptimizeResult replanned = PlannerSession(on).Optimize(drifted);
    EXPECT_FALSE(replanned.stats.cache_hit);
    EXPECT_EQ(replanned.plan->cost, fresh.plan->cost);
    EXPECT_EQ(l1.Snapshot().drift_hits, 1u);
  }

  // And after that write-behind, the disk tier's newest record matches
  // the drifted statistics: a third cold open is an exact tier-2 hit.
  {
    PersistentCacheOptions popts;
    popts.directory = dir.path();
    std::string error;
    auto disk = PersistentPlanCache::Open(popts, &error);
    ASSERT_NE(disk, nullptr) << error;
    OptimizerOptions on;
    on.persistent_cache = disk.get();
    OptimizeResult warm = PlannerSession(on).Optimize(drifted);
    EXPECT_TRUE(warm.stats.cache_hit);
    EXPECT_EQ(warm.stats.cache_tier, 2);
    EXPECT_FALSE(warm.stats.replan_avoided);
    EXPECT_EQ(warm.plan->cost, fresh.plan->cost);
  }
}

}  // namespace
}  // namespace eadp
