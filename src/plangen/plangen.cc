#include "plangen/plangen.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <utility>

#include "common/thread_pool.h"
#include "conflict/conflict_detector.h"
#include "hypergraph/dphyp_enumerator.h"
#include "plangen/dp_combine.h"
#include "plangen/dp_table.h"
#include "plangen/large_query.h"
#include "plangen/parallel_dp.h"
#include "plangen/plan_cache.h"

namespace eadp {

const char* AlgorithmName(Algorithm a) {
  switch (a) {
    case Algorithm::kDphyp:
      return "DPhyp";
    case Algorithm::kEaAll:
      return "EA-All";
    case Algorithm::kEaPrune:
      return "EA-Prune";
    case Algorithm::kH1:
      return "H1";
    case Algorithm::kH2:
      return "H2";
    case Algorithm::kGoo:
      return "GOO";
    case Algorithm::kIdp:
      return "IDP";
  }
  return "?";
}

namespace {

/// The exact facade seeds queries with at least this many relations:
/// below it the GOO run costs more than the bound saves (measured in
/// DESIGN.md §14, "seeded bound").
constexpr int kSeedMinRelations = 5;

/// GOO's cost is widened by this factor before it bounds the exact DP.
/// Rounding alone can put GOO's cost an ulp below an optimum it matches:
/// bounded by the raw cost, the DP would find no plan and re-run
/// unbounded. Any bound at or above the optimum keeps the plan's bytes
/// (DESIGN.md §14).
constexpr double kSeedSlack = 1 + 4 * std::numeric_limits<double>::epsilon();

class Generator {
 public:
  Generator(const Query& query, const OptimizerOptions& options,
            double cost_bound)
      : query_(query),
        options_(options),
        cost_bound_(cost_bound),
        conflicts_(query),
        builder_(&query, &conflicts_, EffectiveBuilderOptions(options),
                 std::make_shared<PlanArena>()),
        combiner_(&query, &builder_, &dp_, options.algorithm,
                  options.h2_tolerance, /*read_dp=*/nullptr, cost_bound) {
    dp_.SetDominanceOptions(!options.prune_without_cardinality,
                            !options.prune_without_keys,
                            options.full_fd_dominance);
    // Sized for the worst case (every connected subgraph becomes a class),
    // capped so large queries don't pre-pay for classes the enumeration
    // may never reach — past the cap the table grows geometrically anyway.
    int n = query.NumRelations();
    dp_.Reserve(size_t{1} << std::min(n, 12));
  }

  OptimizeResult Run() {
    auto start = std::chrono::steady_clock::now();
    OptimizeResult result;
    result.stats.algorithm = options_.algorithm;

    RelSet all = query_.AllRelations();
    for (int r : BitsOf(all)) {
      dp_.Append(RelSet::Single(r), builder_.MakeScan(r));
    }

    uint64_t worker_plans_built = 0;
    const int dp_workers = std::max(options_.dp_threads, 1);
    if (dp_workers > 1 && all.Count() >= 3) {
      // Intra-query parallel DP (parallel_dp.h): levels over |S1 ∪ S2|
      // with per-worker shards, cost-identical to the sequential loop
      // below at any worker count. A transient pool is spun up when the
      // caller didn't inject one (FanOut runs worker 0 on this thread, so
      // W workers need W-1 pool slots).
      ThreadPool* pool = options_.dp_pool;
      std::unique_ptr<ThreadPool> local_pool;
      if (pool == nullptr) {
        local_pool = std::make_unique<ThreadPool>(dp_workers - 1);
        pool = local_pool.get();
      }
      std::vector<std::vector<CcpPair>> levels;
      result.stats.ccp_count =
          CollectCsgCmpPairsBySize(conflicts_.hypergraph(), &levels);
      ParallelDp parallel(&query_, &conflicts_, options_, &builder_, &dp_,
                          dp_workers, pool, cost_bound_);
      parallel.RunLevels(levels);
      worker_plans_built = parallel.stats().worker_plans_built;
      result.stats.dp_barrier_wait_ms = parallel.stats().barrier_wait_ms;
      result.stats.dp_workers = dp_workers;
    } else {
      result.stats.ccp_count = EnumerateCsgCmpPairs(
          conflicts_.hypergraph(),
          [this](RelSet s1, RelSet s2) { combiner_.Combine(s1, s2); });
    }

    PlanPtr best = dp_.Best(all);
    if (best != nullptr && best->op != PlanOp::kFinalMap) {
      // A single relation, or the kDphyp baseline, which adds the single
      // top grouping after join ordering; the eager-aggregation generators
      // finalize at insertion time.
      best = builder_.FinalizeTop(best);
    }
    // Only the returned plan gets aggregation payloads (op_trees.h).
    result.plan = builder_.Materialize(best);

    result.stats.plans_built = builder_.plans_built() + worker_plans_built;
    result.stats.table_plans = dp_.TotalPlans();
    result.stats.table_classes = dp_.NumClasses();
    result.stats.pruned_candidates = dp_.pruned_candidates();
    result.stats.pruned_existing = dp_.pruned_existing();
    result.stats.optimize_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    // Hand the node storage to the caller; the DP table's raw pointers die
    // with this Generator.
    result.arena = builder_.arena();
    return result;
  }

 private:
  const Query& query_;
  const OptimizerOptions& options_;
  double cost_bound_;
  ConflictDetector conflicts_;
  PlanBuilder builder_;
  DpTable dp_;
  CcpCombiner combiner_;
};

}  // namespace

OptimizeResult Optimize(const Query& query, const OptimizerOptions& options,
                        double cost_bound) {
  switch (options.algorithm) {
    case Algorithm::kGoo:
      return OptimizeGreedy(query, options);
    case Algorithm::kIdp:
      return OptimizeIdp(query, options);
    default: {
      OptimizeResult result = Generator(query, options, cost_bound).Run();
      if (result.plan != nullptr || !(cost_bound < kNoCostBound)) {
        return result;
      }
      // The bound undercut the unbounded result (rounding that differs
      // from RecostPlan's, or a pruning run whose optimality preconditions
      // fail — DESIGN.md §14): plan again without it.
      double bounded_ms = result.stats.optimize_ms;
      result = Generator(query, options, kNoCostBound).Run();
      result.stats.optimize_ms += bounded_ms;
      return result;
    }
  }
}

OptimizeResult OptimizeAdaptiveUncached(const Query& query,
                                        const OptimizerOptions& options,
                                        double cost_bound) {
  if (query.NumRelations() <= options.adaptive_exact_relations) {
    OptimizerOptions exact = options;
    if (!IsExhaustive(exact.algorithm)) exact.algorithm = Algorithm::kEaPrune;
    // Seeded bound (DESIGN.md §14): GOO's cost bounds the eager-aggregation
    // enumerations, whose search space normally holds GOO's plan (when it
    // does not, Optimize re-runs unbounded). DPhyp's lazy optimum can cost
    // more than GOO's eager groupings, which would force that re-run every
    // time; H1/H2 ignore bounds; a caller's bound already comes from a
    // complete plan; and below kSeedMinRelations the GOO run costs more
    // than it prunes.
    bool seed = !(cost_bound < kNoCostBound) &&
                query.NumRelations() >= kSeedMinRelations &&
                (exact.algorithm == Algorithm::kEaAll ||
                 exact.algorithm == Algorithm::kEaPrune);
    if (!seed) return Optimize(query, exact, cost_bound);
    auto start = std::chrono::steady_clock::now();
    double goo_cost = GreedyPlanCost(query, exact) * kSeedSlack;
    double seed_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    OptimizeResult result = Optimize(query, exact, goo_cost);
    result.stats.optimize_ms += seed_ms;
    return result;
  }
  // Run both large-query strategies and keep the cheaper plan: kGoo costs
  // O(n^2) crossing probes (single-digit ms at n=100), so racing it against
  // kIdp buys a guaranteed `adaptive <= min(kIdp, kGoo)` cost for free and
  // covers the topologies where bounded subproblems cannot combine at all
  // (e.g. cliques, whose prefix-shaped SES sets defeat group selection).
  // kGoo runs first so its cost bounds kIdp, which gives up once it cannot
  // win. A caller's bound never gets here: kIdp is not exact, so a bound
  // that is not the race's own could flip the winner.
  OptimizeResult goo = OptimizeGreedy(query, options);
  OptimizeResult idp = OptimizeIdp(
      query, options, goo.plan != nullptr ? goo.plan->cost : kNoCostBound);
  return PickAdaptiveWinner(std::move(idp), std::move(goo));
}

OptimizeResult PickAdaptiveWinner(OptimizeResult idp, OptimizeResult goo) {
  bool goo_wins = idp.plan == nullptr ||
                  (goo.plan != nullptr && goo.plan->cost < idp.plan->cost);
  OptimizeResult result = goo_wins ? std::move(goo) : std::move(idp);
  const OptimizeResult& loser = goo_wins ? idp : goo;  // the unmoved one
  // The facade's cost is both runs, not just the winner's.
  result.stats.optimize_ms += loser.stats.optimize_ms;
  result.stats.ccp_count += loser.stats.ccp_count;
  result.stats.plans_built += loser.stats.plans_built;
  return result;
}

}  // namespace eadp
