// Query: the optimizer's input.
//
// A Query bundles the catalog, the flattened operator list of the input
// operator tree, the grouping attributes G and the aggregation vector F of
// the top grouping (paper: ΓG;F over the join tree). Flattening keeps, for
// every operator, the relation sets of its original left and right subtrees
// — exactly what the conflict detector (SIGMOD'13) needs.
//
// Flattening also records every operator's footprint (OpFootprint): its raw
// SES and the attributes it keeps alive while pending. Both are fixed once
// FromTree returns — the operator list never changes afterwards, and
// mutable_catalog() edits statistics, never which relation owns an
// attribute — so the DP's grouping test (GroupByPlus, run for every pair of
// subplans) is a loop of mask tests over stored values.

#ifndef EADP_ALGEBRA_QUERY_H_
#define EADP_ALGEBRA_QUERY_H_

#include <memory>
#include <string>
#include <vector>

#include "algebra/aggregate.h"
#include "algebra/operator_tree.h"
#include "algebra/predicate.h"
#include "catalog/catalog.h"
#include "common/bitset.h"

namespace eadp {

/// One flattened operator of the input tree.
struct QueryOp {
  OpKind kind = OpKind::kJoin;
  JoinPredicate predicate;
  double selectivity = 1.0;
  AggregateVector groupjoin_aggs;  ///< kGroupJoin only

  RelSet left_rels;   ///< T(left(o)): relations of the original left subtree
  RelSet right_rels;  ///< T(right(o))

  RelSet Relations() const { return left_rels.Union(right_rels); }
};

/// What one flattened operator needs from the relations below it, derived
/// once in Query::FromTree.
struct OpFootprint {
  /// Raw syntactic eligibility set: the relations owning an attribute of
  /// the predicate or a groupjoin aggregate argument. The conflict detector
  /// pads it for degenerate predicates; this is the unpadded value.
  RelSet ses;
  /// Attributes the operator keeps alive while it is pending: its
  /// predicate attributes plus its groupjoin aggregate arguments.
  AttrSet attrs;
};

/// A post-aggregation scalar computation, used to reconstitute avg after the
/// canonicalization avg(a) -> sum(a)/countNN(a) (Sec. 2.1.2). The final map
/// emits `output = numerator_slot / denominator_slot` (NULL if the
/// denominator is 0).
struct FinalDivision {
  std::string output;
  int numerator_slot = -1;    ///< index into Query::aggregates
  int denominator_slot = -1;  ///< index into Query::aggregates
};

/// The optimizer input: ΓG;F applied to an operator tree.
class Query {
 public:
  Query() = default;

  /// Builds a query from an operator tree. The tree is flattened; its
  /// ownership is retained so callers can still inspect or execute it.
  static Query FromTree(Catalog catalog, std::unique_ptr<OpTreeNode> root,
                        AttrSet group_by, AggregateVector aggregates);

  const Catalog& catalog() const { return catalog_; }
  Catalog* mutable_catalog() { return &catalog_; }

  const std::vector<QueryOp>& ops() const { return ops_; }
  const OpTreeNode* root() const { return root_.get(); }

  AttrSet group_by() const { return group_by_; }
  const AggregateVector& aggregates() const { return aggregates_; }
  const std::vector<FinalDivision>& final_divisions() const {
    return final_divisions_;
  }

  /// All relations referenced by the query.
  RelSet AllRelations() const { return all_rels_; }
  int NumRelations() const { return all_rels_.Count(); }

  /// Relations whose attributes are visible at the root of the original
  /// tree (relations hidden below the right side of a semijoin, antijoin or
  /// groupjoin contribute no attributes upward). Grouping attributes and
  /// aggregate arguments must come from visible relations.
  RelSet VisibleRelations() const { return visible_rels_; }

  /// Replaces every avg slot by a sum slot and a countNN slot and records a
  /// FinalDivision that recombines them; afterwards all aggregates are
  /// decomposable-or-distinct and the plan generators can reason uniformly.
  /// Idempotent.
  void Canonicalize();

  /// The syntactic eligibility set of operator `op_index`: the relations
  /// its predicate (and, for groupjoins, its aggregate vector) references.
  /// The stored footprint; computing it costs nothing.
  RelSet OpSes(size_t op_index) const { return footprints_[op_index].ses; }

  /// Attributes referenced by pending operator predicates between `rels`
  /// and its complement, plus the grouping attributes: G+ for the side
  /// `rels` (paper Sec. 3.1: G_i^+ = G_i ∪ J_i). Only attributes owned by
  /// `rels` are returned. An operator is pending iff its raw SES meets
  /// `rels` without being contained in it; the footprints make this one
  /// mask test per operator.
  AttrSet GroupByPlus(RelSet rels) const;

  /// True iff some pending groupjoin's right side intersects `rels`: the
  /// groupjoin's own aggregation must see raw (unaggregated) rows, so
  /// grouping `rels` early is invalid (see DESIGN.md §2). False at once
  /// for queries without a groupjoin.
  bool PendingGroupJoinRightIntersects(RelSet rels) const;

  /// Human-readable multi-line dump.
  std::string ToString() const;

 private:
  void Flatten(const OpTreeNode* node);

  Catalog catalog_;
  std::vector<QueryOp> ops_;
  std::vector<OpFootprint> footprints_;  ///< parallel to ops_
  bool has_groupjoin_ = false;
  std::unique_ptr<OpTreeNode> root_;
  AttrSet group_by_;
  AggregateVector aggregates_;
  std::vector<FinalDivision> final_divisions_;
  RelSet all_rels_;
  RelSet visible_rels_;
  bool canonicalized_ = false;
};

}  // namespace eadp

#endif  // EADP_ALGEBRA_QUERY_H_
