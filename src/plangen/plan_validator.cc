#include "plangen/plan_validator.h"

#include <algorithm>

#include "common/strings.h"

namespace eadp {

namespace {

class Validator {
 public:
  Validator(const Query& query) : query_(query) {}

  std::vector<std::string> Run(const PlanPtr& plan) {
    if (!plan) {
      Fail("plan is null");
      return violations_;
    }
    if (plan->op != PlanOp::kFinalMap) {
      Fail("finalized plan must be rooted at a final map");
    }
    Walk(*plan);

    // Every input operator applied exactly once.
    std::vector<int> counts(query_.ops().size(), 0);
    CountOps(*plan, &counts);
    for (size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] != 1) {
        Fail(StrFormat("operator %zu applied %d times", i, counts[i]));
      }
    }
    return violations_;
  }

 private:
  void Fail(const std::string& message) { violations_.push_back(message); }

  void CountOps(const PlanNode& node, std::vector<int>* counts) {
    for (int i : node.op_indices()) {
      if (i >= 0 && static_cast<size_t>(i) < counts->size()) {
        ++(*counts)[static_cast<size_t>(i)];
      } else {
        Fail(StrFormat("invalid operator index %d", i));
      }
    }
    if (node.left) CountOps(*node.left, counts);
    if (node.right) CountOps(*node.right, counts);
  }

  void Walk(const PlanNode& node) {
    const Catalog& catalog = query_.catalog();
    if (node.cost < 0 || node.cardinality < 0) {
      Fail("negative cost or cardinality");
    }
    switch (node.op) {
      case PlanOp::kScan:
        if (node.relation < 0 || node.relation >= catalog.num_relations()) {
          Fail("scan of invalid relation");
        } else if (node.rels != RelSet::Single(node.relation)) {
          Fail("scan relation set mismatch");
        }
        return;
      case PlanOp::kGroup:
      case PlanOp::kFinalGroup: {
        if (!node.left || node.right) {
          Fail("grouping must have exactly one child");
          return;
        }
        if (node.rels != node.left->rels) {
          Fail("grouping changes the relation set");
        }
        AttrSet own = catalog.AttributesOf(node.rels);
        if (!node.group_by.IsSubsetOf(own)) {
          Fail("grouping attributes outside the covered relations");
        }
        if (node.op == PlanOp::kGroup && node.left->op == PlanOp::kGroup) {
          Fail("grouping directly over grouping");
        }
        if (node.cardinality > node.left->cardinality + 1e-9) {
          Fail("grouping increases cardinality");
        }
        if (!node.duplicate_free) Fail("grouping result not duplicate-free");
        if (node.group_aggs_ == nullptr) {
          Fail("grouping without aggregates (unmaterialized plan)");
        }
        Walk(*node.left);
        return;
      }
      case PlanOp::kFinalMap:
        if (!node.left || node.right) {
          Fail("final map must have exactly one child");
          return;
        }
        if (node.final_map_ == nullptr) {
          Fail("final map without payload (unmaterialized plan)");
        } else if (node.output_columns().empty()) {
          Fail("final map without outputs");
        }
        Walk(*node.left);
        return;
      default:
        break;
    }

    // Binary operators.
    if (!node.left || !node.right) {
      Fail("binary operator without two children");
      return;
    }
    if (node.rels != node.left->rels.Union(node.right->rels)) {
      Fail("relation set is not the union of the children");
    }
    if (node.left->rels.Intersects(node.right->rels)) {
      Fail("children overlap");
    }
    if (node.op_indices().empty()) {
      Fail("binary operator without input operators");
    }
    if (node.agg_state_ == nullptr) {
      Fail("binary operator without aggregation state (unmaterialized plan)");
    }
    AttrSet refs = node.predicate().ReferencedAttrs();
    AttrSet own = query_.catalog().AttributesOf(node.rels);
    if (!refs.IsSubsetOf(own)) {
      Fail("predicate references attributes outside the children");
    }
    // Cout bookkeeping: cost = |T| + cost(children).
    double expected =
        node.cardinality + node.left->cost + node.right->cost;
    if (std::abs(node.cost - expected) > 1e-6 * (1 + expected)) {
      Fail(StrFormat("cost %.6g does not match C_out %.6g", node.cost,
                     expected));
    }
    // Outer joins must install defaults for every live count column of the
    // padded side (missing defaults silently corrupt aggregates).
    auto check_defaults = [&](const PlanAggState& state,
                              const std::vector<SymbolicDefault>& defaults,
                              const char* side) {
      for (const CountColumn& c : state.counts) {
        bool found = false;
        for (const SymbolicDefault& d : defaults) {
          if (d.column == c.column && d.one) found = true;
        }
        if (!found) {
          Fail(StrFormat("missing default 1 for count column %s (%s side)",
                         c.column.c_str(), side));
        }
      }
    };
    if (node.op == PlanOp::kLeftOuter || node.op == PlanOp::kFullOuter) {
      check_defaults(node.right->agg_state(), node.right_defaults(), "right");
    }
    if (node.op == PlanOp::kFullOuter) {
      check_defaults(node.left->agg_state(), node.left_defaults(), "left");
    }
    Walk(*node.left);
    Walk(*node.right);
  }

  const Query& query_;
  std::vector<std::string> violations_;
};

}  // namespace

std::vector<std::string> ValidatePlan(const PlanPtr& plan,
                                      const Query& query) {
  Validator v(query);
  return v.Run(plan);
}

}  // namespace eadp
