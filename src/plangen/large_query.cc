#include "plangen/large_query.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "conflict/conflict_detector.h"
#include "hypergraph/dphyp_enumerator.h"
#include "plangen/dp_combine.h"
#include "plangen/dp_table.h"

namespace eadp {

namespace {

/// Shared state of one large-query optimization run: the conflict detector,
/// one PlanBuilder (and therefore one arena, which stitched subplans must
/// outlive, see DESIGN.md §8), and the stats bookkeeping.
class LargeQueryRun {
 public:
  LargeQueryRun(const Query& query, const OptimizerOptions& options)
      : query_(query),
        conflicts_(query),
        builder_(&query, &conflicts_, EffectiveBuilderOptions(options),
                 std::make_shared<PlanArena>()),
        start_(std::chrono::steady_clock::now()) {}

  const Query& query() const { return query_; }
  const ConflictDetector& conflicts() const { return conflicts_; }
  PlanBuilder& builder() { return builder_; }

  void CountCut() { ++cuts_tried_; }
  void AbsorbTableStats(const DpTable& dp) {
    table_plans_ += dp.TotalPlans();
    table_classes_ += dp.NumClasses();
    pruned_candidates_ += dp.pruned_candidates();
    pruned_existing_ += dp.pruned_existing();
  }

  /// Base-relation scans, one unit per relation.
  std::vector<PlanPtr> MakeLeafUnits() {
    std::vector<PlanPtr> units;
    units.reserve(static_cast<size_t>(query_.NumRelations()));
    for (int r : BitsOf(query_.AllRelations())) {
      units.push_back(builder_.MakeScan(r));
    }
    return units;
  }

  /// The plan of the original operator tree (no reordering, no eager
  /// aggregation). Always applicable: every operator is applied at its own
  /// original cut, where the conflict rules trivially hold.
  PlanPtr CanonicalPlan() { return CanonicalRec(query_.root()); }

  /// `plan` with the top grouping and final map added, unless it already
  /// ends in them (trees covering the whole query arrive finalized).
  PlanPtr Finalize(PlanPtr plan) {
    if (plan != nullptr && plan->op != PlanOp::kFinalMap) {
      plan = builder_.FinalizeTop(plan);
    }
    return plan;
  }

  /// Finalizes `plan`, materializes it, fills the stats and hands the
  /// arena over.
  OptimizeResult Finish(PlanPtr plan, Algorithm used) {
    OptimizeResult result;
    result.plan = builder_.Materialize(Finalize(plan));
    result.stats.algorithm = used;
    result.stats.ccp_count = cuts_tried_;
    result.stats.plans_built = builder_.plans_built();
    result.stats.table_plans = table_plans_;
    result.stats.table_classes = table_classes_;
    result.stats.pruned_candidates = pruned_candidates_;
    result.stats.pruned_existing = pruned_existing_;
    result.stats.optimize_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
    result.arena = builder_.arena();
    return result;
  }

 private:
  PlanPtr CanonicalRec(const OpTreeNode* node) {
    if (node->is_leaf) return builder_.MakeScan(node->relation);
    PlanPtr l = CanonicalRec(node->left.get());
    PlanPtr r = CanonicalRec(node->right.get());
    if (l == nullptr || r == nullptr) return nullptr;
    CountCut();
    CrossingOps crossing = builder_.FindCrossingOps(l->rels, r->rels);
    if (!crossing.valid) return nullptr;
    PlanPtr t1 = crossing.swap ? r : l;
    PlanPtr t2 = crossing.swap ? l : r;
    return builder_.MakeJoin(t1, t2, crossing);
  }

  const Query& query_;
  ConflictDetector conflicts_;
  PlanBuilder builder_;
  std::chrono::steady_clock::time_point start_;
  uint64_t cuts_tried_ = 0;
  size_t table_plans_ = 0;
  size_t table_classes_ = 0;
  uint64_t pruned_candidates_ = 0;
  uint64_t pruned_existing_ = 0;
};

/// kGoo's merge loop: the unfinalized plan of the last remaining unit, or
/// the canonical plan when merging gets stuck or `merge_budget` runs out.
PlanPtr GreedyPlan(LargeQueryRun& run, int merge_budget) {
  std::vector<PlanPtr> units = run.MakeLeafUnits();
  const size_t n = units.size();

  // Cheapest OpTrees combination per unit pair, indexed by the two units'
  // slots in `units`. A merge keeps the merged unit in the lower slot and
  // retires the higher one, leaving all other units untouched, so cached
  // candidates stay valid across rounds; only pairs involving the freshly
  // merged unit are computed again. A blocked pair (null) is cached too.
  struct Memo {
    bool computed = false;
    PlanPtr plan = nullptr;
  };
  std::vector<Memo> memo(n * n);
  // Live slots in ascending order: the pair scan visits the units in the
  // order of a list the merges erase from.
  std::vector<size_t> live(n);
  for (size_t i = 0; i < n; ++i) live[i] = i;
  std::vector<PlanPtr> trees;
  auto candidate = [&](size_t i, size_t j) -> PlanPtr {
    Memo& m = memo[i * n + j];
    if (m.computed) return m.plan;
    m.computed = true;
    run.CountCut();
    // Orient the pair by relation set (smaller word first), so the cut is
    // costed the same way whichever slot holds which unit.
    PlanPtr a = units[i], b = units[j];
    if (b->rels < a->rels) std::swap(a, b);
    CrossingOps crossing = run.builder().FindCrossingOps(a->rels, b->rels);
    if (!crossing.valid) return nullptr;
    PlanPtr t1 = crossing.swap ? b : a;
    PlanPtr t2 = crossing.swap ? a : b;
    trees.clear();
    run.builder().OpTrees(t1, t2, crossing, &trees);
    PlanPtr best = nullptr;
    for (PlanPtr t : trees) {
      if (best == nullptr || t->cost < best->cost) best = t;
    }
    m.plan = best;
    return best;
  };

  int merges = 0;
  while (live.size() > 1) {
    size_t bi = 0, bj = 0;
    PlanPtr best = nullptr;
    // The merge budget (a test seam, -1 = unlimited) deliberately routes
    // through the same fallback branch as a conflict-blocked state, so
    // tests can pin the fallback on a genuinely partially-merged run.
    if (merge_budget < 0 || merges < merge_budget) {
      for (size_t i = 0; i < live.size(); ++i) {
        for (size_t j = i + 1; j < live.size(); ++j) {
          PlanPtr t = candidate(live[i], live[j]);
          if (t != nullptr && (best == nullptr || t->cost < best->cost)) {
            best = t;
            bi = i;
            bj = j;
          }
        }
      }
    }
    if (best == nullptr) {
      // Conflict rules block every remaining pair (or the merge budget is
      // exhausted): give up on greedy merging and fall back to the
      // always-applicable original tree. The successfully merged units are
      // discarded wholesale — audited 2026-07: a partial-merge-preserving
      // fallback has nothing to attach to, because a blocked state means
      // the *pending* operators reject every inter-unit cut, and the
      // canonical rebuild applies every operator at its own original cut,
      // which conflict rules always admit. The discarded units only cost
      // arena memory (already-built nodes stay allocated until the run's
      // arena dies), and the fallback plan is exactly OptimizeOriginal's —
      // validator-clean and cost-equal, pinned by large_query_test. No
      // natural trigger is known for tree-shaped single-predicate queries
      // (a 15k-query sweep over mixed-operator trees never blocked:
      // CD-C's conservative rules only admit merges that keep the
      // remaining ops applicable along the original tree), so the branch
      // is exercised through OptimizeGreedy's merge budget.
      return run.CanonicalPlan();
    }
    size_t merged = live[bi];
    units[merged] = best;
    for (size_t k = 0; k < n; ++k) {
      memo[merged * n + k] = Memo{};
      memo[k * n + merged] = Memo{};
    }
    live.erase(live.begin() + static_cast<ptrdiff_t>(bj));
    ++merges;
  }
  return units[live[0]];
}

}  // namespace

OptimizeResult OptimizeGreedy(const Query& query,
                              const OptimizerOptions& options,
                              int merge_budget) {
  LargeQueryRun run(query, options);
  return run.Finish(GreedyPlan(run, merge_budget), Algorithm::kGoo);
}

double GreedyPlanCost(const Query& query, const OptimizerOptions& options,
                      int merge_budget) {
  LargeQueryRun run(query, options);
  PlanPtr plan = run.Finalize(GreedyPlan(run, merge_budget));
  return plan != nullptr ? plan->cost : kNoCostBound;
}

OptimizeResult OptimizeIdp(const Query& query, const OptimizerOptions& options,
                           double cost_bound) {
  LargeQueryRun run(query, options);
  std::vector<PlanPtr> units = run.MakeLeafUnits();
  // Clamped: the subset-split DP below enumerates 2^(k+2) unit classes in
  // 32-bit masks, and past ~16 the 3^k split work is absurd anyway.
  int k = std::clamp(options.idp_block_size, 2, 16);
  const bool bounded = cost_bound < kNoCostBound;

  // Two units are adjacent when some input operator references relations
  // of both — weaker than hypergraph connectivity (a hyperedge side may
  // span several units), which is exactly what lets groups grow across
  // hyperedges whose full side is not yet assembled.
  size_t num_ops = query.ops().size();
  auto adjacent = [&](RelSet a, RelSet b) {
    for (size_t i = 0; i < num_ops; ++i) {
      RelSet ses = run.conflicts().conflicts(static_cast<int>(i)).ses;
      if (ses.Intersects(a) && ses.Intersects(b)) return true;
    }
    return false;
  };

  // Seeds whose subproblem produced no merge; retried only after some
  // other subproblem changes the unit partition.
  std::vector<RelSet> blocked;
  auto is_blocked = [&](RelSet rels) {
    return std::find(blocked.begin(), blocked.end(), rels) != blocked.end();
  };

  while (units.size() > 1) {
    // Seed: the cheapest-cardinality unit not yet blocked — merging small
    // inputs first mirrors the greedy block selection of IDP1.
    size_t seed = units.size();
    for (size_t i = 0; i < units.size(); ++i) {
      if (is_blocked(units[i]->rels)) continue;
      if (seed == units.size() ||
          units[i]->cardinality < units[seed]->cardinality) {
        seed = i;
      }
    }
    if (seed == units.size()) {
      // Every remaining seed is stuck — let the caller fall back to kGoo.
      return run.Finish(nullptr, Algorithm::kIdp);
    }

    // Grow the group by the smallest-cardinality adjacent unit. The last
    // round gets two units of slack: leaving a 1-2 unit remainder forces a
    // blind top-level stitch exactly where structure matters most (e.g.
    // the closing edge of a cycle), and 3^(k+2) splits are still cheap.
    int limit = static_cast<int>(units.size()) <= k + 2
                    ? static_cast<int>(units.size())
                    : k;
    std::vector<size_t> group = {seed};
    RelSet group_rels = units[seed]->rels;
    while (static_cast<int>(group.size()) < limit) {
      size_t pick = units.size();
      for (size_t j = 0; j < units.size(); ++j) {
        if (units[j]->rels.Intersects(group_rels)) continue;  // in group
        if (!adjacent(group_rels, units[j]->rels)) continue;
        if (pick == units.size() ||
            units[j]->cardinality < units[pick]->cardinality) {
          pick = j;
        }
      }
      if (pick == units.size()) break;
      group.push_back(pick);
      group_rels.UnionWith(units[pick]->rels);
    }
    if (group.size() < 2) {
      blocked.push_back(units[seed]->rels);
      continue;
    }

    // Exact bounded DP over the group: every split of every unit subset,
    // inserted under kEaPrune's policy. Subset masks are
    // processed in increasing word order, so both sides of a split are
    // complete before the split is tried (the DP prerequisite).
    int g = static_cast<int>(group.size());
    uint32_t full = (uint32_t{1} << g) - 1;
    std::vector<RelSet> class_rels(full + 1);
    for (uint32_t mask = 1; mask <= full; ++mask) {
      uint32_t low = mask & (~mask + 1);
      class_rels[mask] =
          class_rels[mask & (mask - 1)].Union(
              units[group[static_cast<size_t>(std::countr_zero(low))]]->rels);
    }
    DpTable dp;
    dp.SetDominanceOptions(!options.prune_without_cardinality,
                           !options.prune_without_keys,
                           options.full_fd_dominance);
    dp.Reserve(full + 1);
    for (int b = 0; b < g; ++b) {
      dp.Append(class_rels[uint32_t{1} << b], units[group[static_cast<size_t>(b)]]);
    }
    // Under a cost bound (large_query.h) a class can be empty for two
    // reasons: conflict rules block every split of it, or every plan it
    // would hold costs more than the bound. Only the first may send the
    // run to the salvage below, so a bounded run also tracks
    // reachability, which the bound does not change: a class is reachable
    // when some split of it has valid crossing operators and two
    // reachable sides — exactly the classes the unbounded run fills. A
    // split whose sides both hold plans learns that from Combine; only
    // splits with a side the bound emptied probe the crossing themselves.
    std::vector<char> reachable;
    if (bounded) {
      reachable.assign(full + 1, 0);
      for (int b = 0; b < g; ++b) reachable[uint32_t{1} << b] = 1;
    }
    CcpCombiner combiner(&query, &run.builder(), &dp, Algorithm::kEaPrune,
                         cost_bound);
    for (uint32_t mask = 3; mask <= full; ++mask) {
      if (std::popcount(mask) < 2) continue;
      uint32_t lowest = mask & (~mask + 1);
      for (uint32_t sub = (mask - 1) & mask; sub != 0;
           sub = (sub - 1) & mask) {
        // Each unordered split once: keep the side with the lowest unit.
        if ((sub & lowest) == 0) continue;
        uint32_t comp = mask ^ sub;
        if (comp == 0) continue;
        if (!dp.Has(class_rels[sub]) || !dp.Has(class_rels[comp])) {
          if (bounded && !reachable[mask] && reachable[sub] &&
              reachable[comp] &&
              run.builder()
                  .FindCrossingOps(class_rels[sub], class_rels[comp])
                  .valid) {
            reachable[mask] = 1;
          }
          continue;
        }
        run.CountCut();
        if (combiner.Combine(class_rels[sub], class_rels[comp]) && bounded) {
          reachable[mask] = 1;
        }
      }
    }

    // The winner replaces its units. When conflict rules leave the full
    // group uncombinable, salvage the reachable class that joins the most
    // units (cheapest on ties) so the iteration still makes progress.
    PlanPtr win = dp.Best(class_rels[full]);
    uint32_t win_mask = full;
    int best_count = g;
    if (win == nullptr) {
      best_count = 1;
      for (uint32_t mask = 3; mask <= full; ++mask) {
        int count = std::popcount(mask);
        if (count < 2 || count < best_count) continue;
        if (bounded ? !reachable[mask] : !dp.Has(class_rels[mask])) continue;
        PlanPtr p = dp.Best(class_rels[mask]);
        if (count > best_count ||
            (p != nullptr && (win == nullptr || p->cost < win->cost))) {
          win = p;
          win_mask = mask;
          best_count = count;
        }
      }
    }
    run.AbsorbTableStats(dp);
    // kEaPrune never inserts a tree costing more than the bound.
    assert(win == nullptr || !(win->cost > cost_bound));
    if (win == nullptr && best_count >= 2) {
      // The unbounded run's winner here costs more than the bound: its
      // class is reachable but the bound emptied it. Every later plan
      // contains that winner, so the final plan would cost more than the
      // bound and lose the race: stop.
      return run.Finish(nullptr, Algorithm::kIdp);
    }
    if (win == nullptr) {
      blocked.push_back(units[seed]->rels);
      continue;
    }

    RelSet covered = class_rels[win_mask];
    std::vector<PlanPtr> next;
    next.reserve(units.size());
    for (PlanPtr u : units) {
      if (!u->rels.IsSubsetOf(covered)) next.push_back(u);
    }
    next.push_back(win);
    units = std::move(next);
    blocked.clear();
  }
  return run.Finish(units[0], Algorithm::kIdp);
}

OptimizeResult OptimizeOriginal(const Query& query,
                                const OptimizerOptions& options) {
  LargeQueryRun run(query, options);
  return run.Finish(run.CanonicalPlan(), options.algorithm);
}

}  // namespace eadp
