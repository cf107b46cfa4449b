#include "plangen/dp_combine.h"

#include <cassert>
#include <utility>

namespace eadp {

CcpCombiner::CcpCombiner(const Query* query, PlanBuilder* builder,
                         DpTable* dp, Algorithm algorithm,
                         double cost_bound, double h2_tolerance,
                         const DpTable* read_dp)
    : query_(query),
      builder_(builder),
      dp_(dp),
      read_dp_(read_dp != nullptr ? read_dp : dp),
      algorithm_(algorithm),
      h2_tolerance_(h2_tolerance),
      cost_bound_(cost_bound) {
  assert(algorithm_ != Algorithm::kGoo && algorithm_ != Algorithm::kIdp &&
         "CcpCombiner implements the DP insertion policies; the large-query "
         "strategies are drivers on top of them (large_query.h)");
}

namespace {

/// DpTable::Best over a class's plan list: the first plan of least cost.
PlanPtr Cheapest(const std::vector<PlanPtr>& plans) {
  PlanPtr best = plans[0];
  for (PlanPtr p : plans) {
    if (p->cost < best->cost) best = p;
  }
  return best;
}

}  // namespace

bool CcpCombiner::Combine(RelSet s1, RelSet s2) {
  // Sources first: under a cost bound most classes of a re-plan stay
  // empty, and a pair with an empty side builds nothing, so it is
  // rejected before its crossing operators are derived. References stay
  // valid while inserting: the target class is strictly larger than
  // either source, and unordered_map rehashing never invalidates
  // references to values (pinned by dp_table_test).
  const std::vector<PlanPtr>& plans1 = read_dp_->Plans(s1);
  if (plans1.empty()) return false;
  const std::vector<PlanPtr>& plans2 = read_dp_->Plans(s2);
  if (plans2.empty()) return false;
  CrossingOps crossing = builder_->FindCrossingOps(s1, s2);
  if (!crossing.valid) return false;
  const std::vector<PlanPtr>& plans_a = crossing.swap ? plans2 : plans1;
  const std::vector<PlanPtr>& plans_b = crossing.swap ? plans1 : plans2;
  RelSet s = s1.Union(s2);
  bool top = s == query_->AllRelations();

  switch (algorithm_) {
    case Algorithm::kDphyp: {
      PlanPtr t1 = Cheapest(plans_a);
      PlanPtr t2 = Cheapest(plans_b);
      // Cost-bound pruning (constructor comment): every tree built from
      // (t1, t2) costs at least t1->cost + t2->cost, rounding included.
      if (t1->cost + t2->cost > cost_bound_) break;
      PlanPtr t = builder_->MakeJoin(t1, t2, crossing);
      if (t->cost > cost_bound_) break;
      dp_->InsertIfCheaper(s, t);
      break;
    }
    case Algorithm::kH1:
    case Algorithm::kH2: {
      trees_.clear();
      builder_->OpTrees(Cheapest(plans_a), Cheapest(plans_b), crossing,
                        &trees_);
      for (PlanPtr t : trees_) InsertHeuristic(s, t, top);
      break;
    }
    case Algorithm::kEaAll:
    case Algorithm::kEaPrune: {
      for (PlanPtr t1 : plans_a) {
        for (PlanPtr t2 : plans_b) {
          if (t1->cost + t2->cost > cost_bound_) continue;
          trees_.clear();
          builder_->OpTrees(t1, t2, crossing, &trees_);
          for (PlanPtr t : trees_) {
            if (t->cost > cost_bound_) continue;
            if (top) {
              // InsertTopLevelPlan: single best complete plan.
              dp_->InsertIfCheaper(s, t);
            } else if (algorithm_ == Algorithm::kEaAll) {
              dp_->Append(s, t);
            } else {
              dp_->InsertPruned(s, t);
            }
          }
        }
      }
      break;
    }
    case Algorithm::kGoo:
    case Algorithm::kIdp:
      return false;  // unreachable (constructor assert)
  }
  return true;
}

void CcpCombiner::InsertHeuristic(RelSet s, PlanPtr plan, bool top) {
  if (algorithm_ == Algorithm::kH1) {
    dp_->InsertIfCheaper(s, std::move(plan));
    return;
  }
  PlanPtr old = dp_->Best(s);
  if (!old) {
    dp_->Append(s, std::move(plan));
    return;
  }
  double f = h2_tolerance_;
  bool better;
  if (top || plan->Eagerness() == old->Eagerness()) {
    better = plan->cost < old->cost;
  } else if (plan->Eagerness() < old->Eagerness()) {
    better = f * plan->cost < old->cost;
  } else {
    better = plan->cost < f * old->cost;
  }
  if (better) dp_->ReplaceSingle(s, std::move(plan));
}

}  // namespace eadp
