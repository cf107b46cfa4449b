#include "plangen/op_trees.h"

#include <algorithm>
#include <cassert>

#include "plangen/keys.h"
#include "plangen/plan_fds.h"

namespace eadp {

PlanBuilder::PlanBuilder(const Query* query, const ConflictDetector* conflicts,
                         const BuilderOptions& options,
                         std::shared_ptr<PlanArena> arena)
    : query_(query),
      conflicts_(conflicts),
      options_(options),
      estimator_(&query->catalog()),
      arena_(arena ? std::move(arena) : std::make_shared<PlanArena>()) {
  const size_t num_ops = query->ops().size();
  assert(num_ops <= static_cast<size_t>(kBitsetCapacity));
  RelSet all = query->AllRelations();
  op_touch_.resize(all.empty() ? 0 : static_cast<size_t>(all.Highest()) + 1);
  op_ses_.reserve(num_ops);
  for (size_t i = 0; i < num_ops; ++i) {
    RelSet ses = conflicts->conflicts(static_cast<int>(i)).ses;
    op_ses_.push_back(ses);
    for (int r : BitsOf(ses)) {
      op_touch_[static_cast<size_t>(r)].Add(static_cast<int>(i));
    }
  }
  // Modest pre-sizing keeps the interner from rehashing inside the (timed)
  // enumeration; construction is off the hot path.
  crossing_interner_.reserve(64);
}

PlanPtr PlanBuilder::MakeScan(int rel) {
  PlanNode* node = NewNode();
  node->op = PlanOp::kScan;
  node->rels = RelSet::Single(rel);
  node->relation = rel;
  node->cardinality = estimator_.BaseCardinality(rel);
  node->raw_cardinality = node->cardinality;
  node->pregroup_cardinality = node->cardinality;
  node->cost = cost_model_.ScanCost();
  const RelationDef& def = query_->catalog().relation(rel);
  KeySet keys;
  for (AttrSet k : def.keys) keys.Insert(k);
  node->keys_ = arena_->InternKeys(keys);
  node->duplicate_free = def.duplicate_free;
  for (const AggregateFunction& f : query_->aggregates()) {
    if (f.arg >= 0 && !IsDecomposable(f) &&
        query_->catalog().RelationOf(f.arg) == rel) {
      node->raw_nondecomp.Add(f.arg);
    }
  }
  if (options_.track_fds) {
    node->fds_ = arena_->arena().New<FdSet>(ScanFds(query_->catalog(), rel));
  }
  return node;
}

const CrossingInfo* PlanBuilder::InternCrossing(Bitset128 mask,
                                                const int* ops,
                                                size_t count) {
  auto [it, inserted] = crossing_interner_.try_emplace(mask, nullptr);
  if (!inserted) return it->second;

  // First time this operator set crosses a cut: build the shared payload.
  const std::vector<QueryOp>& query_ops = query_->ops();
  CrossingInfo* info = arena_->arena().New<CrossingInfo>();
  info->op_indices.assign(ops, ops + count);
  double selectivity = 1;
  for (size_t k = 0; k < count; ++k) {
    const QueryOp& op = query_ops[static_cast<size_t>(ops[k])];
    selectivity *= op.selectivity;
    for (const AttrEquality& eq : op.predicate.equalities()) {
      info->predicate.AddEquality(eq.left_attr, eq.right_attr);
    }
  }
  info->selectivity = selectivity;
  info->groupjoin_aggs =
      query_ops[static_cast<size_t>(ops[0])].groupjoin_aggs;
  it->second = info;
  return info;
}

CrossingOps PlanBuilder::FindCrossingOps(RelSet s1, RelSet s2) {
  CrossingOps out;
  RelSet s = s1.Union(s2);
  const std::vector<QueryOp>& ops = query_->ops();
  int primary = -1;
  int crossing[kBitsetCapacity];
  size_t count = 0;
  Bitset128 mask;
  // Candidates: the operators whose SES meets both sides, in index order.
  for (int i : BitsOf(OpsTouching(s1).Intersect(OpsTouching(s2)))) {
    // An operator referencing relations outside S stays pending: it is
    // applied at the unique higher cut where its SES is first fully
    // contained (e.g. Q5's cycle-closing c_nationkey = s_nationkey).
    if (!op_ses_[static_cast<size_t>(i)].IsSubsetOf(s)) continue;
    if (ops[static_cast<size_t>(i)].kind != OpKind::kJoin) {
      if (primary >= 0) return out;  // two non-inner operators on one cut
      primary = i;
    }
    crossing[count++] = i;
    mask.Add(i);
  }
  if (count == 0) return out;

  // Mixed non-inner + extra inner predicates on one cut would need the
  // extra predicates folded into the non-inner operator's semantics;
  // conservatively rejected (it takes an extra predicate split off a
  // non-inner tree operator). So a non-inner primary is the only crossing
  // operator, and hence first.
  if (primary >= 0 && count > 1) return out;
  out.primary_kind = ops[static_cast<size_t>(crossing[0])].kind;

  // Orientation: every crossing operator must be applicable with (a, b) as
  // (left, right) arguments; commutative operators accept either side
  // assignment. A non-commutative primary in the swapped orientation means
  // the plan is built with left = plan(s2) — the swap flag tells the caller.
  auto applicable_all = [&](RelSet a, RelSet b) {
    for (size_t k = 0; k < count; ++k) {
      int i = crossing[k];
      bool ok = conflicts_->Applicable(i, a, b);
      if (!ok && IsCommutative(ops[static_cast<size_t>(i)].kind)) {
        ok = conflicts_->Applicable(i, b, a);
      }
      if (!ok) return false;
    }
    return true;
  };
  if (applicable_all(s1, s2)) {
    out.swap = false;
  } else if (applicable_all(s2, s1)) {
    out.swap = true;
  } else {
    return out;
  }
  out.info = InternCrossing(mask, crossing, count);
  out.valid = true;
  return out;
}

PlanPtr PlanBuilder::MakeJoin(PlanPtr left, PlanPtr right,
                              const CrossingOps& crossing) {
  const CrossingInfo& info = *crossing.info;

  PlanNode* node = NewNode();
  node->op = PlanOpFromOpKind(crossing.primary_kind);
  node->rels = left->rels.Union(right->rels);
  node->left = left;
  node->right = right;
  node->crossing = crossing.info;
  double selectivity = info.selectivity;

  KeyProperties keys = ComputeJoinKeys(node->op, query_->catalog(), *left,
                                       *right, info.predicate);
  node->keys_ = keys.passthrough != nullptr ? keys.passthrough
                                            : arena_->InternKeys(keys.keys);
  node->duplicate_free = keys.duplicate_free;

  if (node->op == PlanOp::kJoin) {
    // Inner joins chain the uncapped independence product (order
    // invariant) and apply this node's key-implied bound locally.
    node->raw_cardinality = CardinalityEstimator::ClampCard(
        left->raw_cardinality * right->raw_cardinality * selectivity);
    node->cardinality = node->raw_cardinality;
  } else {
    // Semijoin/antijoin match probability is driven by the distinct join
    // values on the right (invariant under grouping of the right side).
    double right_match_distinct = right->cardinality;
    if (node->op == PlanOp::kLeftSemi || node->op == PlanOp::kLeftAnti) {
      // Distinct join values bound by the grouping-invariant product, so
      // grouped and ungrouped right sides estimate the same existence
      // probability.
      AttrSet j2 = query_->catalog().AttributesOf(
          right->rels, info.predicate.ReferencedAttrs());
      right_match_distinct =
          estimator_.GroupingCardinality(j2, right->pregroup_cardinality);
    }
    node->cardinality = estimator_.JoinCardinality(
        crossing.primary_kind, left->cardinality, right->cardinality,
        selectivity, right_match_distinct);
  }
  // Keys certify uniqueness: cap the estimate by the key-implied bound so
  // estimates stay consistent with κ (see DESIGN.md §3).
  if (node->duplicate_free) {
    node->cardinality =
        std::min(node->cardinality, estimator_.KeyImpliedBound(node->keys()));
  }
  // Non-inner operators restart the raw chain from their capped estimate.
  if (node->op != PlanOp::kJoin) node->raw_cardinality = node->cardinality;
  // The raw/pregroup chains multiply outside the estimator, so they clamp
  // the same way (factors <= kMaxCardinality keep the product finite).
  node->pregroup_cardinality = CardinalityEstimator::ClampCard(
      left->pregroup_cardinality * right->pregroup_cardinality * selectivity);
  node->cost = cost_model_.BinaryOpCost(node->cardinality, left->cost,
                                        right->cost);

  // Right-side attributes are gone behind a left-only operator.
  node->raw_nondecomp =
      LeftOnlyOutput(crossing.primary_kind)
          ? left->raw_nondecomp
          : left->raw_nondecomp.Union(right->raw_nondecomp);
  if (options_.track_fds) {
    node->fds_ = arena_->arena().New<FdSet>(
        JoinFds(node->op, left->fds(), right->fds(), info.predicate));
  }
  return node;
}

bool PlanBuilder::CanPushGrouping(PlanPtr child, OpKind parent,
                                  bool left_side, AttrSet* g_plus) const {
  // Fig. 3: semijoin, antijoin and groupjoin admit the push on the left
  // side only; inner/outer joins on both sides (right side of E and both
  // sides of K via the generalized outerjoin with defaults).
  if (!left_side && LeftOnlyOutput(parent)) return false;
  // Grouping a grouping is never useful (its grouping attributes are
  // already a key).
  if (child->op == PlanOp::kGroup) return false;
  // A pending groupjoin must see raw rows on its right side.
  if (query_->PendingGroupJoinRightIntersects(child->rels)) return false;
  *g_plus = query_->GroupByPlus(child->rels);
  if (!NeedsGrouping(*g_plus, *child)) return false;  // waste (Fig. 6)
  // Every raw slot outside G+ must be decomposable (agg_state.h CanGroup).
  return child->raw_nondecomp.IsSubsetOf(*g_plus);
}

PlanPtr PlanBuilder::MakeGrouping(PlanPtr child, AttrSet g_plus) {
  PlanNode* node = NewNode();
  node->op = PlanOp::kGroup;
  node->rels = child->rels;
  node->left = child;
  node->group_by = g_plus;
  // CanPushGrouping put every raw non-decomposable argument in G+, where
  // it stays raw.
  node->raw_nondecomp = child->raw_nondecomp;
  node->cardinality =
      estimator_.GroupingCardinality(node->group_by, child->cardinality);
  KeyProperties keys = ComputeGroupingKeys(*child, node->group_by);
  node->keys_ = arena_->InternKeys(keys.keys);
  node->duplicate_free = true;
  // Inherited child keys contained in G+ may bound the result below the
  // independence estimate.
  node->cardinality =
      std::min(node->cardinality, estimator_.KeyImpliedBound(node->keys()));
  node->raw_cardinality = node->cardinality;  // the chain restarts at a Γ
  node->pregroup_cardinality = child->pregroup_cardinality;
  if (options_.track_fds) {
    node->fds_ = arena_->arena().New<FdSet>(
        GroupingFds(child->fds(), node->group_by));
  }
  node->cost = cost_model_.GroupingCost(node->cardinality, child->cost);
  return node;
}

void PlanBuilder::OpTrees(PlanPtr t1, PlanPtr t2, const CrossingOps& crossing,
                          std::vector<PlanPtr>* out) {
  bool top = t1->rels.Union(t2->rels) == query_->AllRelations();
  auto add = [&](PlanPtr t) { out->push_back(top ? FinalizeTop(t) : t); };

  add(MakeJoin(t1, t2, crossing));

  AttrSet g1_plus;
  AttrSet g2_plus;
  bool push_left = CanPushGrouping(t1, crossing.primary_kind, true, &g1_plus);
  bool push_right =
      CanPushGrouping(t2, crossing.primary_kind, false, &g2_plus);
  PlanPtr g1 = push_left ? MakeGrouping(t1, g1_plus) : nullptr;
  PlanPtr g2 = push_right ? MakeGrouping(t2, g2_plus) : nullptr;

  if (push_left) add(MakeJoin(g1, t2, crossing));
  if (push_right) add(MakeJoin(t1, g2, crossing));
  if (push_left && push_right) add(MakeJoin(g1, g2, crossing));
}

PlanPtr PlanBuilder::FinalizeTop(PlanPtr t) {
  AttrSet g = query_->group_by();

  PlanPtr below = t;
  if (!options_.top_grouping_elimination || NeedsGrouping(g, *t)) {
    PlanNode* group = NewNode();
    group->op = PlanOp::kFinalGroup;
    group->rels = t->rels;
    group->left = t;
    group->group_by = g;
    group->cardinality = estimator_.GroupingCardinality(g, t->cardinality);
    group->raw_cardinality = group->cardinality;
    group->pregroup_cardinality = t->pregroup_cardinality;
    group->cost = cost_model_.GroupingCost(group->cardinality, t->cost);
    KeyProperties keys = ComputeGroupingKeys(*t, g);
    group->keys_ = arena_->InternKeys(keys.keys);
    group->duplicate_free = true;
    below = group;
  }

  // Final map: computes aggregates (Eqv. 42 path) or reconstitutes avg
  // slots, then projects to the query's output schema, so all plans (and
  // the canonical evaluation) are comparable.
  PlanNode* map = NewNode();
  map->op = PlanOp::kFinalMap;
  map->rels = below->rels;
  map->left = below;
  map->cardinality = below->cardinality;
  map->raw_cardinality = below->raw_cardinality;
  map->pregroup_cardinality = below->pregroup_cardinality;
  map->cost = cost_model_.MapCost(below->cost);
  map->keys_ = below->keys_;
  map->duplicate_free = below->duplicate_free;
  return map;
}

PlanPtr PlanBuilder::Materialize(PlanPtr plan) {
  if (plan == nullptr) return nullptr;
  NameGenerator names;
  return MaterializeNode(plan, &names);
}

PlanPtr PlanBuilder::MaterializeNode(PlanPtr candidate, NameGenerator* names) {
  Arena& arena = arena_->arena();
  PlanNode* node = arena_->NewNode(*candidate);
  if (candidate->left) node->left = MaterializeNode(candidate->left, names);
  if (candidate->right) node->right = MaterializeNode(candidate->right, names);

  switch (node->op) {
    case PlanOp::kScan:
      node->agg_state_ =
          arena.New<PlanAggState>(LeafAggState(*query_, node->relation));
      break;
    case PlanOp::kGroup: {
      // Grouping specs embed fresh generated column names.
      auto* aggs = arena.New<std::vector<ExecAggregate>>();
      node->agg_state_ = arena.New<PlanAggState>(BuildGroupingSpec(
          *query_, node->left->agg_state(), node->group_by, names, aggs));
      node->group_aggs_ = aggs;
      break;
    }
    case PlanOp::kFinalGroup:
      node->group_aggs_ = arena.New<std::vector<ExecAggregate>>(
          BuildFinalAggregates(*query_, node->left->agg_state()));
      break;
    case PlanOp::kFinalMap: {
      // On the Eqv. 42 path every aggregate is computed from the single row
      // of its group; after a final grouping the map only reconstitutes avg
      // slots. Either way it then projects to the query's output schema.
      auto* fm = arena.New<FinalMapInfo>();
      if (node->left->op != PlanOp::kFinalGroup) {
        fm->exprs = BuildFinalMap(*query_, node->left->agg_state());
      }
      const AggregateVector& aggs = query_->aggregates();
      for (const FinalDivision& div : query_->final_divisions()) {
        MapExpr e;
        e.output = div.output;
        e.kind = MapExpr::Kind::kDiv;
        e.arg = aggs[static_cast<size_t>(div.numerator_slot)].output;
        e.arg2 = aggs[static_cast<size_t>(div.denominator_slot)].output;
        fm->exprs.push_back(std::move(e));
      }
      const Catalog& catalog = query_->catalog();
      for (int a : BitsOf(query_->group_by())) {
        fm->output_columns.push_back(catalog.attribute(a).name);
      }
      for (const AggregateFunction& f : aggs) {
        fm->output_columns.push_back(f.output);
      }
      for (const FinalDivision& div : query_->final_divisions()) {
        fm->output_columns.push_back(div.output);
      }
      node->final_map_ = fm;
      break;
    }
    default: {
      const PlanAggState& left = node->left->agg_state();
      const PlanAggState& right = node->right->agg_state();
      // Default vectors for the generalized outer joins: whenever a side
      // that can be null-padded carries generated aggregation columns, pad
      // them with c:1 / F¹({⊥}) instead of NULL (Eqvs. 12/14/15 and
      // DESIGN.md §4).
      if (node->op == PlanOp::kLeftOuter || node->op == PlanOp::kFullOuter) {
        node->right_defaults_ = arena.New<std::vector<SymbolicDefault>>(
            OuterJoinDefaults(*query_, right));
      }
      if (node->op == PlanOp::kFullOuter) {
        node->left_defaults_ = arena.New<std::vector<SymbolicDefault>>(
            OuterJoinDefaults(*query_, left));
      }
      OpKind primary =
          query_->ops()[static_cast<size_t>(node->op_indices()[0])].kind;
      if (LeftOnlyOutput(primary)) {
        // Right-side attributes (and any generated columns there) are
        // gone. Queries never aggregate over hidden relations, so the right
        // state must not carry aggregate slots.
        assert(right.slots.empty() &&
               "aggregate over a relation hidden by a semi/anti/group join");
        node->agg_state_ = node->left->agg_state_;
      } else {
        node->agg_state_ =
            arena.New<PlanAggState>(MergeAggStates(left, right));
      }
      break;
    }
  }
  return node;
}

}  // namespace eadp
