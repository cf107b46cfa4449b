#include "cost/recost.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "cardinality/estimator.h"
#include "cost/cost_model.h"

namespace eadp {

namespace {

/// Inverse of PlanOpFromOpKind for the binary operators (the estimator
/// speaks OpKind).
bool OpKindOf(PlanOp op, OpKind* kind) {
  switch (op) {
    case PlanOp::kJoin: *kind = OpKind::kJoin; return true;
    case PlanOp::kLeftSemi: *kind = OpKind::kLeftSemi; return true;
    case PlanOp::kLeftAnti: *kind = OpKind::kLeftAnti; return true;
    case PlanOp::kLeftOuter: *kind = OpKind::kLeftOuter; return true;
    case PlanOp::kFullOuter: *kind = OpKind::kFullOuter; return true;
    case PlanOp::kGroupJoin: *kind = OpKind::kGroupJoin; return true;
    default: return false;
  }
}

/// Full per-node annotation set: the raw/pregroup chains feed parent
/// estimates exactly as during enumeration, so the recomputation is
/// bit-faithful, not just approximately equal.
struct NodeCards {
  double cost = 0;
  double cardinality = 0;
  double raw = 0;
  double pregroup = 0;
  bool ok = false;
};

NodeCards Walk(PlanPtr node, const Query& query,
               const CardinalityEstimator& estimator,
               const CostModel& cost_model) {
  NodeCards out;
  if (node == nullptr) return out;

  switch (node->op) {
    case PlanOp::kScan: {
      // Mirrors PlanBuilder::MakeScan.
      out.cardinality = estimator.BaseCardinality(node->relation);
      out.raw = out.cardinality;
      out.pregroup = out.cardinality;
      out.cost = cost_model.ScanCost();
      out.ok = true;
      return out;
    }

    case PlanOp::kJoin:
    case PlanOp::kLeftSemi:
    case PlanOp::kLeftAnti:
    case PlanOp::kLeftOuter:
    case PlanOp::kFullOuter:
    case PlanOp::kGroupJoin: {
      // Mirrors PlanBuilder::MakeJoin. The crossing payload stores the
      // applied operator indices; the selectivity product is recomputed
      // from the query's CURRENT operators in the stored order, matching
      // InternCrossing's multiplication order bit-for-bit.
      NodeCards l = Walk(node->left, query, estimator, cost_model);
      NodeCards r = Walk(node->right, query, estimator, cost_model);
      OpKind kind;
      if (!l.ok || !r.ok || node->crossing == nullptr ||
          !OpKindOf(node->op, &kind)) {
        return out;
      }
      const std::vector<QueryOp>& ops = query.ops();
      double selectivity = 1;
      for (int i : node->crossing->op_indices) {
        if (i < 0 || static_cast<size_t>(i) >= ops.size()) return out;
        selectivity *= ops[static_cast<size_t>(i)].selectivity;
      }

      if (node->op == PlanOp::kJoin) {
        out.raw = CardinalityEstimator::ClampCard(l.raw * r.raw * selectivity);
        out.cardinality = out.raw;
      } else {
        double right_match_distinct = r.cardinality;
        if (node->op == PlanOp::kLeftSemi || node->op == PlanOp::kLeftAnti) {
          AttrSet j2 = query.catalog().AttributesOf(
              node->right->rels, node->crossing->predicate.ReferencedAttrs());
          right_match_distinct =
              estimator.GroupingCardinality(j2, r.pregroup);
        }
        out.cardinality = estimator.JoinCardinality(
            kind, l.cardinality, r.cardinality, selectivity,
            right_match_distinct);
      }
      if (node->duplicate_free) {
        out.cardinality = std::min(out.cardinality,
                                   estimator.KeyImpliedBound(node->keys()));
      }
      if (node->op != PlanOp::kJoin) out.raw = out.cardinality;
      out.pregroup = CardinalityEstimator::ClampCard(l.pregroup * r.pregroup *
                                                     selectivity);
      out.cost = cost_model.BinaryOpCost(out.cardinality, l.cost, r.cost);
      out.ok = true;
      return out;
    }

    case PlanOp::kGroup: {
      // Mirrors PlanBuilder::MakeGrouping.
      NodeCards child = Walk(node->left, query, estimator, cost_model);
      if (!child.ok) return out;
      out.cardinality =
          estimator.GroupingCardinality(node->group_by, child.cardinality);
      out.cardinality = std::min(out.cardinality,
                                 estimator.KeyImpliedBound(node->keys()));
      out.raw = out.cardinality;
      out.pregroup = child.pregroup;
      out.cost = cost_model.GroupingCost(out.cardinality, child.cost);
      out.ok = true;
      return out;
    }

    case PlanOp::kFinalGroup: {
      // Mirrors PlanBuilder::FinalizeTop's grouping half (no key cap
      // there: the final grouping's estimate stands on its own).
      NodeCards child = Walk(node->left, query, estimator, cost_model);
      if (!child.ok) return out;
      out.cardinality =
          estimator.GroupingCardinality(node->group_by, child.cardinality);
      out.raw = out.cardinality;
      out.pregroup = child.pregroup;
      out.cost = cost_model.GroupingCost(out.cardinality, child.cost);
      out.ok = true;
      return out;
    }

    case PlanOp::kFinalMap: {
      NodeCards child = Walk(node->left, query, estimator, cost_model);
      if (!child.ok) return out;
      out = child;
      out.cost = cost_model.MapCost(child.cost);
      return out;
    }
  }
  return out;
}

}  // namespace

RecostResult RecostPlan(PlanPtr plan, const Query& query) {
  RecostResult result;
  if (plan == nullptr) return result;
  CardinalityEstimator estimator(&query.catalog());
  CostModel cost_model;
  NodeCards root = Walk(plan, query, estimator, cost_model);
  result.cost = root.cost;
  result.cardinality = root.cardinality;
  result.ok = root.ok;
  return result;
}

namespace {

double FactorProduct(const std::vector<double>& from,
                     const std::vector<double>& to) {
  double scale = 1;
  for (size_t i = 0; i < from.size(); ++i) {
    uint64_t fb, tb;
    std::memcpy(&fb, &from[i], sizeof(fb));
    std::memcpy(&tb, &to[i], sizeof(tb));
    if (fb == tb) continue;
    if (!(from[i] > 0) || !(to[i] > 0)) return 0;
    double r = to[i] / from[i];
    double shrink = std::min(r, 1.0 / r);
    scale *= shrink * shrink;
  }
  return scale;
}

}  // namespace

double DriftCostScale(const StatsOverlay& from, const StatsOverlay& to) {
  if (from.rel_cardinality.size() != to.rel_cardinality.size() ||
      from.attr_distinct.size() != to.attr_distinct.size() ||
      from.op_selectivity.size() != to.op_selectivity.size()) {
    return 0;
  }
  double scale = FactorProduct(from.rel_cardinality, to.rel_cardinality);
  scale *= FactorProduct(from.attr_distinct, to.attr_distinct);
  scale *= FactorProduct(from.op_selectivity, to.op_selectivity);
  return scale;
}

}  // namespace eadp
