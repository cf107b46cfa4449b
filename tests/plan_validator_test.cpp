// Plan validator: accepts all generator output, rejects corrupted plans.

#include "plangen/plan_validator.h"

#include <gtest/gtest.h>

#include "common/strings.h"
#include "plangen/plangen.h"
#include "queries/query_generator.h"
#include "queries/tpch.h"
#include "tests/test_util.h"

namespace eadp {
namespace {

TEST(PlanValidator, AcceptsAllGeneratedPlans) {
  GeneratorOptions gen;
  for (uint64_t seed = 0; seed < 25; ++seed) {
    gen.num_relations = 3 + static_cast<int>(seed % 5);
    Query q = GenerateRandomQuery(gen, seed);
    for (Algorithm a : {Algorithm::kDphyp, Algorithm::kEaPrune,
                        Algorithm::kH1, Algorithm::kH2}) {
      OptimizerOptions opt;
      opt.algorithm = a;
      OptimizeResult r = Optimize(q, opt);
      ASSERT_NE(r.plan, nullptr);
      std::vector<std::string> violations = ValidatePlan(r.plan, q);
      EXPECT_TRUE(violations.empty())
          << AlgorithmName(a) << " seed " << seed << ": "
          << StrJoin(violations, "; ") << "\n"
          << r.plan->ToString(q.catalog());
    }
  }
}

TEST(PlanValidator, AcceptsTpchPlans) {
  std::vector<Query> queries;
  queries.push_back(MakeTpchEx());
  queries.push_back(MakeTpchQ1());
  queries.push_back(MakeTpchQ3());
  queries.push_back(MakeTpchQ5());
  queries.push_back(MakeTpchQ10());
  queries.push_back(MakeTpchQ18());
  for (const Query& q : queries) {
    OptimizerOptions opt;
    opt.algorithm = Algorithm::kEaPrune;
    OptimizeResult r = Optimize(q, opt);
    ASSERT_NE(r.plan, nullptr);
    std::vector<std::string> violations = ValidatePlan(r.plan, q);
    EXPECT_TRUE(violations.empty()) << StrJoin(violations, "; ");
  }
}

TEST(PlanValidator, RejectsNullPlan) {
  GeneratorOptions gen;
  gen.num_relations = 3;
  Query q = GenerateRandomQuery(gen, 1);
  EXPECT_FALSE(ValidatePlan(nullptr, q).empty());
}

TEST(PlanValidator, DetectsDuplicateOperatorApplication) {
  GeneratorOptions gen;
  gen.num_relations = 3;
  Query q = GenerateRandomQuery(gen, 1);
  OptimizerOptions opt;
  opt.algorithm = Algorithm::kEaPrune;
  OptimizeResult r = Optimize(q, opt);
  ASSERT_NE(r.plan, nullptr);
  // Corrupt: duplicate the op index list on the top binary node. Cloned
  // nodes go into a local arena; the interned crossing payload is cloned
  // too before mutation (payloads are shared between nodes).
  PlanArena arena;
  std::function<PlanPtr(const PlanNode&)> corrupt =
      [&](const PlanNode& n) -> PlanPtr {
    PlanNode* copy = arena.NewNode(n);
    if (copy->IsBinary() && !copy->op_indices().empty()) {
      CrossingInfo* ci = arena.arena().New<CrossingInfo>(*copy->crossing);
      ci->op_indices.push_back(ci->op_indices[0]);
      copy->crossing = ci;
      return copy;
    }
    if (copy->left) copy->left = corrupt(*copy->left);
    return copy;
  };
  PlanPtr bad = corrupt(*r.plan);
  EXPECT_FALSE(ValidatePlan(bad, q).empty());
}

TEST(PlanValidator, DetectsBrokenCostBookkeeping) {
  GeneratorOptions gen;
  gen.num_relations = 3;
  Query q = GenerateRandomQuery(gen, 2);
  OptimizerOptions opt;
  opt.algorithm = Algorithm::kEaPrune;
  OptimizeResult r = Optimize(q, opt);
  ASSERT_NE(r.plan, nullptr);
  PlanArena arena;
  std::function<PlanPtr(const PlanNode&)> corrupt =
      [&](const PlanNode& n) -> PlanPtr {
    PlanNode* copy = arena.NewNode(n);
    if (copy->IsBinary()) {
      copy->cost = copy->cost * 2 + 100;
      return copy;
    }
    if (copy->left) copy->left = corrupt(*copy->left);
    return copy;
  };
  PlanPtr bad = corrupt(*r.plan);
  EXPECT_FALSE(ValidatePlan(bad, q).empty());
}

TEST(PlanValidator, DetectsMissingOuterJoinDefaults) {
  // Build a full-outer query whose EA plan pushes a grouping, then strip
  // the default vector off the outer join.
  Query q = MakeTpchEx();
  OptimizerOptions opt;
  opt.algorithm = Algorithm::kEaPrune;
  OptimizeResult r = Optimize(q, opt);
  ASSERT_NE(r.plan, nullptr);
  ASSERT_TRUE(ValidatePlan(r.plan, q).empty());
  PlanArena arena;
  std::function<PlanPtr(const PlanNode&)> strip =
      [&](const PlanNode& n) -> PlanPtr {
    PlanNode* copy = arena.NewNode(n);
    if (copy->op == PlanOp::kFullOuter || copy->op == PlanOp::kLeftOuter) {
      copy->left_defaults_ = nullptr;
      copy->right_defaults_ = nullptr;
    }
    if (copy->left) copy->left = strip(*copy->left);
    if (copy->right) copy->right = strip(*copy->right);
    return copy;
  };
  PlanPtr bad = strip(*r.plan);
  // Only a violation if the plan actually pushed groupings below the
  // outer join (it does for Ex: the whole point of the paper).
  ASSERT_GT(bad->PushedGroupingCount(), 0);
  EXPECT_FALSE(ValidatePlan(bad, q).empty());
}

TEST(PlanValidator, RejectsCandidatesAcceptsTheirMaterialization) {
  // DP candidates carry no aggregation payloads (op_trees.h); only their
  // materialization may reach the executor, serde and the caches.
  size_t candidates = 0;
  for (OpKind kind : {OpKind::kJoin, OpKind::kLeftOuter, OpKind::kFullOuter,
                      OpKind::kLeftSemi, OpKind::kLeftAnti,
                      OpKind::kGroupJoin}) {
    for (AggMix mix : AllAggMixes()) {
      TwoRelSpec spec;
      spec.kind = kind;
      spec.mix = mix;
      Query q = MakeTwoRelQuery(spec);
      ConflictDetector conflicts(q);
      PlanBuilder builder(&q, &conflicts);
      PlanPtr t0 = builder.MakeScan(0);
      PlanPtr t1 = builder.MakeScan(1);
      CrossingOps crossing =
          builder.FindCrossingOps(RelSet::Single(0), RelSet::Single(1));
      ASSERT_TRUE(crossing.valid);
      std::vector<PlanPtr> trees;
      if (crossing.swap) {
        builder.OpTrees(t1, t0, crossing, &trees);
      } else {
        builder.OpTrees(t0, t1, crossing, &trees);
      }
      for (PlanPtr candidate : trees) {
        ++candidates;
        EXPECT_FALSE(ValidatePlan(candidate, q).empty())
            << OpKindName(kind) << "\n" << candidate->ToString(q.catalog());
        PlanPtr plan = builder.Materialize(candidate);
        std::vector<std::string> violations = ValidatePlan(plan, q);
        EXPECT_TRUE(violations.empty())
            << OpKindName(kind) << ": " << StrJoin(violations, "; ") << "\n"
            << plan->ToString(q.catalog());
      }
    }
  }
  EXPECT_GT(candidates, 0u);
}

}  // namespace
}  // namespace eadp
