// Shared helpers for optimizer correctness tests.

#ifndef EADP_TESTS_TEST_UTIL_H_
#define EADP_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "algebra/query.h"
#include "conflict/conflict_detector.h"
#include "exec/plan_executor.h"
#include "plangen/op_trees.h"
#include "plangen/plan_serde.h"
#include "plangen/plangen.h"
#include "queries/data_generator.h"

namespace eadp {

// ---------------------------------------------------------------------------
// Wall-clock pin gating, shared by every suite that asserts a timing
// budget. Wall-clock assertions only hold on optimized, un-instrumented
// builds: sanitizers slow the optimizer by an order of magnitude, and -O0
// (the CI Debug matrix legs) by ~2x — enough to breach e.g. the 100 ms pin
// of large_query_test on the denser topologies. The correctness half of a
// test must still run in every configuration; only the timing expectation
// gets gated:
//
//   if (kTimingPinned) EXPECT_LT(r.stats.optimize_ms, 100);
// ---------------------------------------------------------------------------
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kInstrumentedBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
inline constexpr bool kInstrumentedBuild = true;
#else
inline constexpr bool kInstrumentedBuild = false;
#endif
#else
inline constexpr bool kInstrumentedBuild = false;
#endif
#if defined(__OPTIMIZE__)
inline constexpr bool kTimingPinned = !kInstrumentedBuild;
#else
inline constexpr bool kTimingPinned = false;  // -O0: Debug matrix legs
#endif

/// Aggregate mixes for the two-relation equivalence tests.
/// Each mix is a different exercise of splittability / decomposability /
/// duplicate (in)sensitivity.
enum class AggMix {
  kCountOnly,        // count(*)
  kSumBoth,          // count(*), sum(R0.v), sum(R1.v)
  kMinMax,           // count(*), min(R0.v), max(R1.v)
  kCountAttr,        // count(*), count(R0.v), sum(R1.v)
  kDistinctRight,    // count(*), sum(R0.v), count(distinct R1.v)
  kAvgLeft,          // avg(R0.v), sum(R1.v)  (canonicalized)
};

inline std::vector<AggMix> AllAggMixes() {
  return {AggMix::kCountOnly, AggMix::kSumBoth, AggMix::kMinMax,
          AggMix::kCountAttr, AggMix::kDistinctRight, AggMix::kAvgLeft};
}

struct TwoRelSpec {
  OpKind kind = OpKind::kJoin;
  AggMix mix = AggMix::kSumBoth;
  bool key_on_r0 = false;  ///< declare R0.j as key of R0
  bool key_on_r1 = false;  ///< declare R1.j as key of R1
  bool group_on_right = true;  ///< include R1.g in G (left-only ops: never)
};

/// R0(j,g,v) ◦ R1(j,g,v) with predicate R0.j = R1.j, grouped by R0.g
/// (and R1.g when visible and requested).
inline Query MakeTwoRelQuery(const TwoRelSpec& spec) {
  // Domains are small relative to cardinalities so that pushed groupings
  // genuinely reduce intermediate sizes (d(j)·d(g) ≪ |R|).
  Catalog catalog;
  int r0 = catalog.AddRelation("R0", 1000);
  int j0 = catalog.AddAttribute(r0, "R0.j", 20);
  int g0 = catalog.AddAttribute(r0, "R0.g", 10);
  int v0 = catalog.AddAttribute(r0, "R0.v", 500);
  int r1 = catalog.AddRelation("R1", 2000);
  int j1 = catalog.AddAttribute(r1, "R1.j", 20);
  int g1 = catalog.AddAttribute(r1, "R1.g", 5);
  int v1 = catalog.AddAttribute(r1, "R1.v", 800);
  if (spec.key_on_r0) catalog.DeclareKey(r0, AttrSet::Single(j0));
  if (spec.key_on_r1) catalog.DeclareKey(r1, AttrSet::Single(j1));

  JoinPredicate pred;
  pred.AddEquality(j0, j1);
  auto root = OpTreeNode::Binary(spec.kind, OpTreeNode::Leaf(r0),
                                 OpTreeNode::Leaf(r1), pred, 0.01);
  if (spec.kind == OpKind::kGroupJoin) {
    AggregateFunction cnt;
    cnt.kind = AggKind::kCountStar;
    root->groupjoin_aggs.push_back(cnt);
  }

  bool right_visible = !LeftOnlyOutput(spec.kind);
  AttrSet group_by;
  group_by.Add(g0);
  if (right_visible && spec.group_on_right) group_by.Add(g1);

  AggregateVector aggs;
  AggregateFunction cnt;
  cnt.output = "cnt";
  cnt.kind = AggKind::kCountStar;
  aggs.push_back(cnt);
  auto add = [&](const char* name, AggKind kind, int arg,
                 bool distinct = false) {
    AggregateFunction f;
    f.output = name;
    f.kind = kind;
    f.arg = arg;
    f.distinct = distinct;
    aggs.push_back(f);
  };
  switch (spec.mix) {
    case AggMix::kCountOnly:
      break;
    case AggMix::kSumBoth:
      add("s0", AggKind::kSum, v0);
      if (right_visible) add("s1", AggKind::kSum, v1);
      break;
    case AggMix::kMinMax:
      add("m0", AggKind::kMin, v0);
      if (right_visible) add("m1", AggKind::kMax, v1);
      break;
    case AggMix::kCountAttr:
      add("c0", AggKind::kCount, v0);
      if (right_visible) add("s1", AggKind::kSum, v1);
      break;
    case AggMix::kDistinctRight:
      add("s0", AggKind::kSum, v0);
      if (right_visible) add("d1", AggKind::kCount, v1, /*distinct=*/true);
      break;
    case AggMix::kAvgLeft:
      add("a0", AggKind::kAvg, v0);
      if (right_visible) add("s1", AggKind::kSum, v1);
      break;
  }

  Query q = Query::FromTree(std::move(catalog), std::move(root), group_by,
                            std::move(aggs));
  q.Canonicalize();
  return q;
}

/// EncodePlan bytes of the plan alone (stats carry timings, which differ
/// run to run): the bit-identity currency of the differential pins.
inline std::string PlanOnlyBytes(const OptimizeResult& r) {
  OptimizeResult plan_only;
  plan_only.plan = r.plan;
  return EncodePlan(plan_only);
}

/// Executes `plan` and the canonical evaluation and returns true on bag
/// equality; on mismatch, *message receives a diff-friendly dump.
inline bool PlanMatchesCanonical(const PlanPtr& plan, const Query& query,
                                 const Database& db, std::string* message) {
  Table got = ExecutePlan(plan, query, db);
  Table want = ExecuteCanonical(query, db);
  if (Table::BagEquals(got, want)) return true;
  if (message != nullptr) {
    *message = "plan:\n" + plan->ToString(query.catalog()) + "\nresult:\n" +
               got.ToString() + "\nexpected:\n" + want.ToString();
  }
  return false;
}

}  // namespace eadp

#endif  // EADP_TESTS_TEST_UTIL_H_
