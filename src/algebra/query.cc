#include "algebra/query.h"

#include <cassert>

#include "common/strings.h"

namespace eadp {

Query Query::FromTree(Catalog catalog, std::unique_ptr<OpTreeNode> root,
                      AttrSet group_by, AggregateVector aggregates) {
  Query q;
  q.catalog_ = std::move(catalog);
  q.group_by_ = group_by;
  q.aggregates_ = std::move(aggregates);
  q.all_rels_ = root->Relations();
  q.root_ = std::move(root);
  q.Flatten(q.root_.get());

  // Footprints: ops and attribute ownership are fixed from here on.
  q.footprints_.reserve(q.ops_.size());
  for (const QueryOp& op : q.ops_) {
    OpFootprint f;
    f.attrs = op.predicate.ReferencedAttrs();
    for (const AggregateFunction& agg : op.groupjoin_aggs) {
      if (agg.arg >= 0) f.attrs.Add(agg.arg);
    }
    f.ses = q.catalog_.RelationsOf(f.attrs);
    q.footprints_.push_back(f);
    q.has_groupjoin_ |= op.kind == OpKind::kGroupJoin;
  }

  // Visible relations: walk the tree; right subtrees of semi/anti/group
  // joins are invisible above the operator.
  q.visible_rels_ = q.all_rels_;
  for (const QueryOp& op : q.ops_) {
    if (LeftOnlyOutput(op.kind)) {
      q.visible_rels_ = q.visible_rels_.Minus(op.right_rels);
    }
  }
  return q;
}

void Query::Flatten(const OpTreeNode* node) {
  if (node->is_leaf) return;
  Flatten(node->left.get());
  Flatten(node->right.get());
  QueryOp op;
  op.kind = node->kind;
  op.predicate = node->predicate;
  op.selectivity = node->selectivity;
  op.groupjoin_aggs = node->groupjoin_aggs;
  op.left_rels = node->left->Relations();
  op.right_rels = node->right->Relations();
  ops_.push_back(std::move(op));
  // Extra conjuncts become separate inner-join operators over the same
  // subtrees (operator_tree.h): each is its own hyperedge for the
  // enumerator, and the selectivity product equals the conjoined
  // predicate's.
  RelSet left_rels = node->left->Relations();
  RelSet right_rels = node->right->Relations();
  for (const ExtraPredicate& extra : node->extra_predicates) {
    QueryOp split;
    split.kind = OpKind::kJoin;
    split.predicate = extra.predicate;
    split.selectivity = extra.selectivity;
    split.left_rels = left_rels;
    split.right_rels = right_rels;
    ops_.push_back(std::move(split));
  }
}

void Query::Canonicalize() {
  if (canonicalized_) return;
  canonicalized_ = true;
  AggregateVector out;
  for (const AggregateFunction& f : aggregates_) {
    if (f.kind == AggKind::kAvg && !f.distinct) {
      AggregateFunction sum_part;
      sum_part.output = f.output + "$sum";
      sum_part.kind = AggKind::kSum;
      sum_part.arg = f.arg;
      AggregateFunction cnt_part;
      cnt_part.output = f.output + "$cnt";
      cnt_part.kind = AggKind::kCountNN;
      cnt_part.arg = f.arg;
      FinalDivision div;
      div.output = f.output;
      div.numerator_slot = static_cast<int>(out.size());
      div.denominator_slot = static_cast<int>(out.size()) + 1;
      final_divisions_.push_back(div);
      out.push_back(std::move(sum_part));
      out.push_back(std::move(cnt_part));
    } else {
      out.push_back(f);
    }
  }
  aggregates_ = std::move(out);
}

AttrSet Query::GroupByPlus(RelSet rels) const {
  // Pending: the operator has not yet been applied within `rels`. An
  // operator is applied exactly at the cut where its syntactic eligibility
  // set (SES) first spans the two sides, so it is pending iff its SES
  // meets `rels` without being contained in it. (The original subtree
  // relation sets are NOT the right test: reordering can apply an operator
  // inside a smaller set than its original subtrees spanned.) A pending
  // operator keeps its predicate attributes and, for a groupjoin, its
  // aggregate arguments alive.
  AttrSet pending;
  for (const OpFootprint& f : footprints_) {
    if (f.ses.Intersects(rels) && !f.ses.IsSubsetOf(rels)) {
      pending.UnionWith(f.attrs);
    }
  }
  return catalog_.AttributesOf(rels, group_by_.Union(pending));
}

bool Query::PendingGroupJoinRightIntersects(RelSet rels) const {
  if (!has_groupjoin_) return false;
  for (size_t i = 0; i < ops_.size(); ++i) {
    const QueryOp& op = ops_[i];
    // Pending: not yet applied within `rels` (SES containment, see above).
    if (op.kind == OpKind::kGroupJoin && op.right_rels.Intersects(rels) &&
        !footprints_[i].ses.IsSubsetOf(rels)) {
      return true;
    }
  }
  return false;
}

std::string Query::ToString() const {
  std::string s = "Query over " + all_rels_.ToString() + "\n";
  s += "  group by: " + catalog_.AttrSetToString(group_by_) + "\n";
  std::vector<std::string> aggs;
  for (const AggregateFunction& f : aggregates_) {
    aggs.push_back(f.ToString(f.arg >= 0 ? catalog_.attribute(f.arg).name
                                         : std::string()));
  }
  s += "  aggregates: " + StrJoin(aggs, ", ") + "\n";
  if (root_) s += root_->ToString(catalog_, 1);
  return s;
}

}  // namespace eadp
