// The five plan generators of the paper (Sec. 4).
//
//   kDphyp   — the baseline: reorders all operators with DPhyp + conflict
//              detection but never pushes grouping; a single top grouping
//              finishes the plan (Fig. 5).
//   kEaAll   — complete enumeration with eager aggregation: keeps every
//              join tree per plan class (BuildPlansAll, Fig. 9).
//              Exponential; optimal.
//   kEaPrune — complete enumeration + optimality-preserving dominance
//              pruning (BuildPlansPrune, Fig. 14 / Fig. 13). Optimal.
//   kH1      — heuristic: single cheapest tree per class, groupings
//              assessed locally (BuildPlansH1, Fig. 10).
//   kH2      — heuristic: like H1 but prefers "more eager" plans within a
//              tolerance factor F (BuildPlansH2, Fig. 12).
//
// Complexity (Sec. 4.3): per csg-cmp-pair, kEaAll does work proportional
// to the product of the kept plan lists — O(2^{2n-1}) tree pairs in the
// worst case — while kDphyp/kH1/kH2 keep O(1) plans per class and the
// pruned table of kEaPrune typically stays small (see bench_complexity).
//
// Invariants: all generators share one enumeration (conflict detection →
// hypergraph → DPhyp), so they consider exactly the same plan classes and
// differ only in the DP-table insertion policy and grouping placement.
// On every query, Cost(kEaPrune) == Cost(kEaAll), and no heuristic or the
// baseline beats that optimum, which itself never exceeds the baseline
// (all three relations pinned by plangen_test).
//
// Beyond the exhaustive enumeration, the large-query subsystem
// (plangen/large_query.h) contributes two strategies for queries past the
// exact-DP wall (~15 relations):
//
//   kGoo     — greedy operator ordering: merges the cheapest valid pair of
//              subplans bottom-up, with eager-aggregation placement decided
//              locally per merge. O(n^2) candidate evaluations; always
//              terminates (falls back to the original operator tree when
//              conflict rules block every remaining pair).
//   kIdp     — iterative dynamic programming (IDP1 style): repeatedly runs
//              the exact insertion policies over bounded unit subproblems
//              (<= OptimizerOptions::idp_block_size units, default policy
//              kEaPrune) and stitches the winners until one plan remains.
//
// The adaptive facade (OptimizeAdaptiveUncached, reached through
// PlannerSession in plangen/session.h) is the production entry point:
// exact DP up to OptimizerOptions::adaptive_exact_relations; above that
// both large-query strategies run and the cheaper plan wins (kGoo doubling
// as the always-terminating fallback). Both paths are bounded by kGoo's
// cost. Differential tests pin that the facade is cost-identical to
// kEaPrune on every corpus query where exact DP runs (large_query_test)
// and byte-identical to the unseeded facade (seeded_bound_test).

#ifndef EADP_PLANGEN_PLANGEN_H_
#define EADP_PLANGEN_PLANGEN_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "algebra/query.h"
#include "plangen/op_trees.h"
#include "plangen/plan.h"

namespace eadp {

class PersistentPlanCache;
class PlanCache;
class ThreadPool;

enum class Algorithm { kDphyp, kEaAll, kEaPrune, kH1, kH2, kGoo, kIdp };

const char* AlgorithmName(Algorithm a);

/// True for the algorithms that run the exhaustive DPhyp enumeration (the
/// five generators of the paper); false for the large-query strategies.
inline bool IsExhaustive(Algorithm a) {
  return a != Algorithm::kGoo && a != Algorithm::kIdp;
}

/// The plan-identity half of the optimizer configuration: every knob that
/// steers WHICH plan gets built. This is exactly the set the plan-cache
/// key folds in (plan_cache.h's FoldOptionsIntoFingerprint consumes a
/// PlannerKnobs and folds every field — no per-knob exclusion list): two
/// configurations with equal PlannerKnobs may share cache entries, two
/// with different knobs never do. Execution context (pools, cache
/// pointers, serving policy) lives in PlannerContext instead, so adding a
/// context field can never silently cross-serve plans between
/// configurations.
struct PlannerKnobs {
  Algorithm algorithm = Algorithm::kEaPrune;
  /// Tolerance factor F of CompareAdjustedCosts (H2 only).
  double h2_tolerance = 1.03;
  /// Builder options (top-grouping elimination etc.).
  BuilderOptions builder;
  /// Ablation: disable the key criterion in the dominance test (EA-Prune).
  bool prune_without_keys = false;
  /// Ablation: disable the cardinality criterion in the dominance test.
  bool prune_without_cardinality = false;
  /// Use the unweakened FD-closure comparison of Def. 4 in the dominance
  /// test instead of (in addition to) the key-based weakening. More exact,
  /// prunes less, costs closure computations per comparison.
  bool full_fd_dominance = false;

  // ---- Large-query subsystem (plangen/large_query.h) ----

  /// Adaptive facade: queries with at most this many relations run the
  /// exact enumeration with `algorithm`; larger ones run kIdp, with kGoo
  /// as the always-terminating fallback. The default sits safely below the
  /// exhaustive-DP wall for every topology (a 12-clique enumerates in the
  /// low milliseconds; see bench_large_queries).
  int adaptive_exact_relations = 12;
  /// kIdp: maximum number of units (base relations or previously stitched
  /// subplans) per bounded exact subproblem. Each subproblem enumerates
  /// all connected splits of up to this many units (<= 3^k work), so the
  /// knob trades plan quality against optimization time; 6 is the knee of
  /// that curve on the seeded 100-relation workloads (k=7 costs ~3x the
  /// time for plan costs within a few percent — see bench_large_queries).
  int idp_block_size = 6;
  /// kIdp: insertion policy used inside the bounded subproblems (any
  /// exhaustive algorithm; the optimal pruned enumeration by default).
  Algorithm idp_inner = Algorithm::kEaPrune;
  /// kGoo testing/ablation hook: number of greedy merges after which the
  /// run takes its original-tree fallback (-1 = unlimited, the production
  /// setting). The fallback's natural trigger — conflict rules blocking
  /// every remaining unit pair mid-run — has no known witness among
  /// tree-shaped single-predicate queries (see the audit note in
  /// large_query.cc), so the regression tests drive the fallback path
  /// through this cap instead: it funnels a genuinely partially-merged
  /// state through the very same branch.
  int goo_merge_budget = -1;

  // ---- Intra-query parallel DP (plangen/parallel_dp.h) ----

  /// DP workers for one exhaustive enumeration (and for kIdp's bounded
  /// subproblems): csg-cmp-pairs are processed level-by-level over the
  /// subset size |S1 ∪ S2|, spread across this many workers within each
  /// level. 1 (the default) runs the plain sequential DP loop — small
  /// queries pay nothing. Any worker count produces the sequential run's
  /// plan byte for byte (identical DP-table contents by construction,
  /// generated columns named once by the primary builder; pinned by
  /// parallel_dp_test). It is still folded into the plan-cache
  /// fingerprint: dropping it would change every cache key already on
  /// disk. The pool the workers run on is execution context
  /// (PlannerContext::dp_pool), not plan identity. The service's wire
  /// codec does not carry it (server/protocol.h): remote sessions plan
  /// sequentially.
  int dp_threads = 1;
};

/// The execution-context half of the optimizer configuration: where the
/// planning runs and which caches serve it — never WHICH plan gets built.
/// Nothing in here is folded into the plan-cache key (the cache's identity
/// must not depend on which cache is probed or which pool plans), which is
/// structural now: the key derives from PlannerKnobs alone, so there is no
/// per-field exclusion list to maintain. In the session API
/// (plangen/session.h) this is the state a PlannerSession owns for its
/// lifetime while per-call knobs travel in PlannerKnobs.
struct PlannerContext {
  // ---- Cross-query plan cache (plangen/plan_cache.h) ----

  /// When set, PlannerSession's Optimize and OptimizeBatch probe this
  /// cache with the query's canonical fingerprint — extended by the
  /// planning-relevant option knobs, so mixed configurations safely share
  /// one cache — before planning, and populate it after. Hits return the
  /// memoized plan (cost-identical to a fresh run by determinism; pinned
  /// differentially in plan_cache_test) with stats.cache_hit set and
  /// optimize_ms covering only the probe. The cache is thread-safe;
  /// batch planning shares one instance across all pool workers. Not
  /// owned; must outlive the optimization calls. Unsatisfiable results
  /// (null plan) are never cached.
  PlanCache* plan_cache = nullptr;

  /// Disk-backed second cache tier (plangen/persistent_cache.h), probed
  /// when `plan_cache` misses (or alone, if no memory tier is set): hits
  /// decode the stored blob into a fresh arena, are promoted into
  /// `plan_cache`, and report stats.cache_tier == 2. Fresh plans are
  /// written behind. Like plan_cache and dp_pool this is execution
  /// context, not plan identity — both tiers share the same cache key and
  /// neither pointer is folded into it. Not owned; must outlive the
  /// optimization calls.
  PersistentPlanCache* persistent_cache = nullptr;

  /// Pool the extra DP workers run on (worker 0 is the calling thread, so
  /// PlannerKnobs::dp_threads W needs W-1 pool slots). Borrowed, not
  /// owned; may be shared with OptimizeBatch. When null and dp_threads > 1,
  /// Optimize spins up a transient pool for the run.
  ThreadPool* dp_pool = nullptr;

  // ---- Incremental re-optimization under statistics drift ----

  /// Drift tolerance band for serving cached plans whose statistics
  /// overlay no longer matches the probing query's: a drifted hit is
  /// re-costed (cost/recost.h) and served iff
  ///   recost(plan) <= (1 + drift_tolerance) * DriftCostScale * old_cost,
  /// i.e. iff the cached plan is provably within the tolerance of any plan
  /// a full re-run could find. 0 (the default) disables stale serving
  /// entirely — every drifted hit re-plans, preserving the pre-drift
  /// "stats change == different plan run" behavior exactly. Like the cache
  /// pointers this is serving policy, not plan identity: it is NOT folded
  /// into the cache key.
  double drift_tolerance = 0;
  /// When set together with plan_cache, out-of-tolerance drifted hits
  /// re-plan on this pool in the BACKGROUND: the stale plan is served
  /// immediately (stats.replan_background) and the refreshed entry is
  /// swapped in place when the re-plan finishes. When null, out-of-band
  /// drifted hits re-plan inline (the caller waits, stats.cache_tier 0).
  /// Borrowed, not owned; destroy the pool BEFORE the caches it refreshes.
  ThreadPool* replan_pool = nullptr;
};

/// Knobs and context in one flat aggregate (C++17 aggregates-with-bases, so
/// `OptimizerOptions o; o.algorithm = ...; o.plan_cache = ...;` sets either
/// half). This is what Optimize and PlannerSession(OptimizerOptions) take;
/// the split exists so cache-key code can consume exactly the identity
/// half by slicing to the PlannerKnobs base.
struct OptimizerOptions : PlannerKnobs, PlannerContext {};

/// Builder options as the generators actually instantiate them: the
/// full-FD dominance ablation needs FD sets tracked on every node. Used by
/// both the sequential Generator and the parallel DP's worker builders so
/// the two construct plans identically.
inline BuilderOptions EffectiveBuilderOptions(const OptimizerOptions& o) {
  BuilderOptions b = o.builder;
  b.track_fds |= o.full_fd_dominance;
  return b;
}

struct OptimizeStats {
  uint64_t ccp_count = 0;       ///< csg-cmp-pairs (or candidate cuts) tried
  uint64_t plans_built = 0;     ///< plan nodes constructed
  size_t table_plans = 0;       ///< plans in the DP table at the end
  size_t table_classes = 0;     ///< plan classes in the DP table
  double optimize_ms = 0;       ///< wall-clock optimization time
  /// The strategy that actually produced the plan — what the adaptive
  /// facade chose, including a fallback taken mid-flight (e.g. kIdp ->
  /// kGoo).
  Algorithm algorithm = Algorithm::kEaPrune;
  /// True iff the result was served from a cache tier (memory or disk);
  /// the other counters then describe the run that originally built the
  /// plan, while optimize_ms is the fingerprint+probe time of *this* call.
  bool cache_hit = false;
  /// Which tier served the result: 0 = planned fresh, 1 = memory tier
  /// (OptimizerOptions::plan_cache), 2 = disk tier (persistent_cache,
  /// including the decode). Implies cache_hit for tiers 1 and 2.
  int cache_tier = 0;
  /// The hit's statistics had drifted, the re-costed cached plan fell
  /// inside the drift_tolerance band, and a full re-plan was skipped.
  /// recosted_cost then carries the plan's cost under the current
  /// statistics (plan->cost keeps the plan-time annotation).
  bool replan_avoided = false;
  /// The hit's statistics had drifted out of tolerance; the stale plan was
  /// served anyway while a background re-plan (OptimizerOptions::
  /// replan_pool) refreshes the entry in place.
  bool replan_background = false;
  /// Root plan cost under the probing query's statistics when the serve
  /// decision re-costed the plan (replan_avoided or replan_background);
  /// 0 otherwise.
  double recosted_cost = 0;

  // DP hot-path counters (exhaustive generators and kIdp subproblems;
  // zero for strategies without a DP table, e.g. kGoo).
  /// Candidate plans rejected by the dominance test at insertion.
  uint64_t pruned_candidates = 0;
  /// Stored plans evicted by a dominating newcomer.
  uint64_t pruned_existing = 0;
  /// Milliseconds the coordinating thread spent blocked on peer DP workers
  /// at subset-size barriers (0 when the DP ran sequentially).
  double dp_barrier_wait_ms = 0;
  /// DP workers the run was configured with (clamped OptimizerOptions::
  /// dp_threads; 1 = sequential).
  int dp_workers = 1;
};

struct OptimizeResult {
  PlanPtr plan = nullptr;  ///< finalized plan (null if unsatisfiable)
  OptimizeStats stats;
  /// Owns every node `plan` points into (the per-optimization arena);
  /// shared so results stay copyable. Executing or inspecting `plan` is
  /// valid exactly as long as some copy of this handle lives.
  std::shared_ptr<PlanArena> arena;
};

/// "No cost bound": the default of every `cost_bound` parameter below.
inline constexpr double kNoCostBound = std::numeric_limits<double>::infinity();

/// Runs the selected plan generator over a (canonicalized) query. The
/// exhaustive algorithms enumerate with DPhyp; kGoo/kIdp dispatch into the
/// large-query subsystem.
///
/// `cost_bound` is an upper bound on the optimum the caller already knows
/// — the cost of a valid complete plan under the query's current
/// statistics: a re-costed cached plan (plan_cache.h) or GOO's plan (the
/// adaptive facade's seed). Under kDphyp, kEaAll and kEaPrune the DP then
/// skips every candidate costing more (dp_combine.h); the heuristics and
/// large-query strategies ignore it. The returned plan is byte-identical
/// to the unbounded run's (DESIGN.md §14, "bounded re-plan"). If the bound
/// is below the unbounded run's result, the bounded run finds no complete
/// plan and Optimize re-runs unbounded; the counters then describe the
/// unbounded run, while optimize_ms covers both. Optimize never seeds a
/// bound itself, so the paper's figures (Fig. 16, bench_complexity,
/// bench_table2_tpch) measure the unbounded enumeration.
OptimizeResult Optimize(const Query& query, const OptimizerOptions& options,
                        double cost_bound = kNoCostBound);

/// The adaptive facade, minus the cache probe: exact enumeration for
/// queries with at most `options.adaptive_exact_relations` relations
/// (using `options.algorithm`; a non-exhaustive value is coerced to
/// kEaPrune); above that both large-query strategies run and the cheaper
/// plan wins (kGoo doubles as the always-terminating fallback when kIdp
/// cannot combine). `result.stats.algorithm` records the strategy that
/// won; its counters and optimize_ms cover both runs. Any cache/replan
/// pointers in `options` are ignored, the query is always planned. This is
/// the `plan_fresh` callback PlannerSession::OptimizeImpl hands to
/// OptimizeThroughCache (the one probe/populate path); exposed so other
/// uncached callers (background re-plans, differential references) can
/// name the planning step without shedding the context fields first.
///
/// Every plan is seeded with GOO's cost (DESIGN.md §14, "seeded bound"),
/// and the plan stays byte-identical to the unseeded facade's:
///   * exact path, kEaAll/kEaPrune, n >= 5, no caller bound: GreedyPlanCost,
///     widened by a few ulps, becomes Optimize's `cost_bound`. The counters
///     describe the exact run; optimize_ms includes the GOO run.
///   * exact path otherwise: Optimize with the caller's `cost_bound` as
///     is (kDphyp's lazy optimum can cost more than GOO's eager plan;
///     H1/H2 ignore bounds; small queries gain nothing).
///   * large path: kGoo runs first and its plan's cost bounds kIdp, which
///     returns no plan once it cannot win the race. `cost_bound` never
///     reaches this path: kIdp is not exact, so a foreign bound could flip
///     the race.
OptimizeResult OptimizeAdaptiveUncached(const Query& query,
                                        const OptimizerOptions& options,
                                        double cost_bound = kNoCostBound);

/// Merges the two completed large-query race results into the facade's
/// result: the cheaper plan wins (kIdp on cost ties), the loser's
/// counters are folded into the winner's stats, and the loser's arena is
/// dropped wholesale when its OptimizeResult dies. A null plan loses
/// outright (kIdp legitimately returns none on cliques, or gives up under
/// kGoo's bound); its counters are folded all the same. The facade's race
/// policy, public so differential tests can rebuild the unseeded facade
/// from OptimizeIdp and OptimizeGreedy.
OptimizeResult PickAdaptiveWinner(OptimizeResult idp, OptimizeResult goo);

}  // namespace eadp

#endif  // EADP_PLANGEN_PLANGEN_H_
