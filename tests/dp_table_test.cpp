// DpTable storage contract at scale: Append / InsertPruned / ReplaceSingle
// interleavings across many classes, the span guarantee the generators
// rely on — a class's span obtained before thousands of insertions into
// *other* classes (forcing index growth) must stay valid (dp_combine.cc
// holds the source spans across OpTrees/insert loops; run under ASan this
// test is the grow-while-iterating regression guard) — and a model test
// that replays seeded random operation sequences against a small
// reference table with the plain semantics of every policy.

#include "plangen/dp_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <vector>

#include "catalog/functional_dependency.h"
#include "common/rng.h"
#include "plangen/keys.h"
#include "plangen/plan.h"

namespace eadp {
namespace {

class DpTableScaleTest : public ::testing::Test {
 protected:
  PlanPtr MakePlan(double cost, double card, bool dup_free = false) {
    PlanNode* p = arena_.NewNode();
    p->op = PlanOp::kJoin;
    p->cost = cost;
    p->cardinality = card;
    p->raw_cardinality = card;
    p->keys_ = arena_.InternKeys(KeySet{});
    p->duplicate_free = dup_free;
    return p;
  }

  PlanArena arena_;
  DpTable table_;
};

TEST_F(DpTableScaleTest, ClassReferencesSurviveRehashes) {
  // Seed two classes, the first with enough plans to have grown its
  // columns once, and keep their spans.
  RelSet a = RelSet::Single(0);
  RelSet b = RelSet::Single(1);
  for (int i = 0; i < 5; ++i) table_.Append(a, MakePlan(1 + i, 10));
  table_.Append(b, MakePlan(2, 20));
  std::span<const PlanPtr> list_a = table_.Plans(a);
  std::span<const PlanPtr> list_b = table_.Plans(b);
  std::vector<PlanPtr> copy_a(list_a.begin(), list_a.end());

  // Insert into thousands of *other* classes — the index doubles many
  // times over and the class records reallocate.
  for (uint64_t s = 3; s < 5000; ++s) {
    table_.Append(RelSet(s), MakePlan(static_cast<double>(s), 1));
  }

  // The spans still name the classes' columns, unchanged.
  EXPECT_EQ(table_.Plans(a).data(), list_a.data());
  EXPECT_EQ(table_.Plans(b).data(), list_b.data());
  ASSERT_EQ(list_a.size(), 5u);
  ASSERT_EQ(list_b.size(), 1u);
  EXPECT_TRUE(std::equal(list_a.begin(), list_a.end(), copy_a.begin()));
  EXPECT_DOUBLE_EQ(list_a[0]->cost, 1);
  EXPECT_DOUBLE_EQ(list_b[0]->cost, 2);
  EXPECT_GT(table_.NumClasses(), 4000u);
}

TEST_F(DpTableScaleTest, MimicsGeneratorLoopWhileRehashing) {
  // The plangen.cc pattern: hold references to the source classes of a
  // csg-cmp-pair, produce trees from every pair, insert into the target
  // class — while the table grows underneath.
  RelSet a = RelSet::Single(0);
  RelSet b = RelSet::Single(1);
  for (int i = 0; i < 8; ++i) {
    table_.Append(a, MakePlan(10 + i, 100));
    table_.Append(b, MakePlan(20 + i, 200));
  }
  std::span<const PlanPtr> plans_a = table_.Plans(a);
  std::span<const PlanPtr> plans_b = table_.Plans(b);

  uint64_t target = 4;  // class id counter for fresh target classes
  size_t pairs = 0;
  for (PlanPtr t1 : plans_a) {
    for (PlanPtr t2 : plans_b) {
      ++pairs;
      // Insert several plans into fresh classes per pair: index growth.
      for (int k = 0; k < 16; ++k) {
        table_.InsertPruned(RelSet(target++),
                            MakePlan(t1->cost + t2->cost + k, 50));
      }
    }
  }
  EXPECT_EQ(pairs, 64u);
  EXPECT_EQ(plans_a.size(), 8u);
  EXPECT_EQ(plans_b.size(), 8u);
}

TEST_F(DpTableScaleTest, InterleavedPoliciesAtScale) {
  // Exercise all three insertion policies against the same classes, at a
  // size where bugs in list management (stale erase, double insert) show.
  const int kClasses = 512;
  for (int round = 0; round < 4; ++round) {
    for (int c = 0; c < kClasses; ++c) {
      RelSet s(static_cast<uint64_t>(c) + 1);
      double base = c + 10.0 * round;
      switch ((c + round) % 3) {
        case 0:
          table_.Append(s, MakePlan(base, base));
          break;
        case 1:
          table_.InsertPruned(s, MakePlan(base, base));
          break;
        default:
          table_.ReplaceSingle(s, MakePlan(base, base));
          break;
      }
    }
  }
  EXPECT_EQ(table_.NumClasses(), static_cast<size_t>(kClasses));
  EXPECT_GE(table_.TotalPlans(), static_cast<size_t>(kClasses));
  // Every class still answers queries consistently.
  for (int c = 0; c < kClasses; ++c) {
    RelSet s(static_cast<uint64_t>(c) + 1);
    ASSERT_TRUE(table_.Has(s));
    EXPECT_NE(table_.Best(s), nullptr);
  }
}

TEST_F(DpTableScaleTest, InsertPrunedKeepsParetoFrontierAtScale) {
  RelSet s = RelSet::FirstN(3);
  // 1000 plans on a diagonal: only the joint-minimum survives the sweep.
  for (int i = 0; i < 1000; ++i) {
    table_.InsertPruned(s, MakePlan(1000 - i, 1000 - i));
  }
  ASSERT_EQ(table_.Plans(s).size(), 1u);
  EXPECT_DOUBLE_EQ(table_.Best(s)->cost, 1);
  // An incomparable newcomer (cheaper card, higher cost) coexists.
  table_.InsertPruned(s, MakePlan(500, 0.5));
  EXPECT_EQ(table_.Plans(s).size(), 2u);
  // Reserve mid-life must not disturb stored plans.
  table_.Reserve(1u << 12);
  EXPECT_EQ(table_.Plans(s).size(), 2u);
}


/// The reference: every policy spelled out over a std::map of plan
/// vectors, with the plain Dominates() as the dominance test — the
/// semantics DpTable had as an unordered_map of per-class vectors.
class ModelTable {
 public:
  ModelTable(bool use_cardinality, bool use_keys)
      : use_cardinality_(use_cardinality), use_keys_(use_keys) {}

  bool InsertIfCheaper(RelSet rels, PlanPtr plan) {
    std::vector<PlanPtr>& c = classes_[rels];
    if (c.empty()) {
      c.push_back(plan);
      return true;
    }
    if (plan->cost < c[0]->cost) {
      c[0] = plan;
      return true;
    }
    return false;
  }
  void Append(RelSet rels, PlanPtr plan) { classes_[rels].push_back(plan); }
  bool InsertPruned(RelSet rels, PlanPtr plan) {
    std::vector<PlanPtr>& c = classes_[rels];
    for (PlanPtr old : c) {
      if (Dominates(*old, *plan, use_cardinality_, use_keys_)) {
        ++pruned_candidates;
        return false;
      }
    }
    size_t before = c.size();
    std::erase_if(c, [&](PlanPtr old) {
      return Dominates(*plan, *old, use_cardinality_, use_keys_);
    });
    pruned_existing += before - c.size();
    c.push_back(plan);
    return true;
  }
  void ReplaceSingle(RelSet rels, PlanPtr plan) { classes_[rels] = {plan}; }
  void AdoptClassesFrom(ModelTable& shard) {
    for (auto& [rels, plans] : shard.classes_) classes_[rels] = plans;
    shard.classes_.clear();
    pruned_candidates += shard.pruned_candidates;
    pruned_existing += shard.pruned_existing;
    shard.pruned_candidates = 0;
    shard.pruned_existing = 0;
  }
  size_t TotalPlans() const {
    size_t n = 0;
    for (const auto& [_, plans] : classes_) n += plans.size();
    return n;
  }

  std::map<RelSet, std::vector<PlanPtr>> classes_;
  uint64_t pruned_candidates = 0;
  uint64_t pruned_existing = 0;

 private:
  bool use_cardinality_;
  bool use_keys_;
};

/// Same classes with the same plans in the same order, the same counters.
void ExpectSameTables(const DpTable& table, const ModelTable& model) {
  ASSERT_EQ(table.NumClasses(), model.classes_.size());
  EXPECT_EQ(table.TotalPlans(), model.TotalPlans());
  EXPECT_EQ(table.pruned_candidates(), model.pruned_candidates);
  EXPECT_EQ(table.pruned_existing(), model.pruned_existing);
  for (const auto& [rels, plans] : model.classes_) {
    std::span<const PlanPtr> got = table.Plans(rels);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), plans.begin(), plans.end()))
        << "class " << rels.ToString();
    PlanPtr best = plans.empty() ? nullptr : plans[0];
    for (PlanPtr p : plans) {
      if (p->cost < best->cost) best = p;
    }
    EXPECT_EQ(table.Best(rels), best);
    EXPECT_EQ(table.Has(rels), !plans.empty());
  }
}

class DpTableModelTest : public ::testing::TestWithParam<int> {
 protected:
  /// Plans drawn from small value sets, so ties, dominance both ways and
  /// incomparable pairs are all common.
  PlanPtr RandomPlan(Rng& rng) {
    PlanNode* p = arena_.NewNode();
    p->op = PlanOp::kJoin;
    p->cost = static_cast<double>(rng.UniformInt(1, 6));
    p->cardinality = static_cast<double>(rng.UniformInt(1, 4));
    p->raw_cardinality = p->cardinality + static_cast<double>(rng.UniformInt(0, 1));
    KeySet keys;
    for (int k = 0; k < 2; ++k) {
      if (rng.Bernoulli(0.5)) {
        AttrSet key;
        key.Add(static_cast<int>(rng.UniformInt(0, 3)));
        if (rng.Bernoulli(0.5)) key.Add(static_cast<int>(rng.UniformInt(0, 3)));
        keys.Insert(key);
      }
    }
    p->keys_ = arena_.InternKeys(keys);
    p->duplicate_free = rng.Bernoulli(0.5);
    return p;
  }

  PlanArena arena_;
};

TEST_P(DpTableModelTest, RandomSequencesMatchTheReference) {
  // Dominance variants: the default fast path, then the ablations (no
  // cardinality, no keys) through the generic path.
  const bool use_cardinality = GetParam() % 3 != 1;
  const bool use_keys = GetParam() % 3 != 2;
  Rng rng(0x5eedull + static_cast<uint64_t>(GetParam()));
  DpTable table;
  DpTable shard;
  table.SetDominanceOptions(use_cardinality, use_keys);
  shard.SetDominanceOptions(use_cardinality, use_keys);
  ModelTable model(use_cardinality, use_keys);
  ModelTable model_shard(use_cardinality, use_keys);

  // Main-table classes come from a pool wide enough to grow the index
  // past its first size; each adoption round fills fresh classes above it.
  const int kPool = 80;
  uint64_t next_shard_class = 1000;
  // A span held across the sequence: valid until its class is written.
  RelSet held_rels;
  std::span<const PlanPtr> held;
  std::vector<PlanPtr> held_copy;

  for (int step = 0; step < 4000; ++step) {
    RelSet rels(static_cast<uint64_t>(rng.UniformInt(1, kPool)));
    PlanPtr plan = RandomPlan(rng);
    switch (rng.UniformInt(0, 9)) {
      case 0:
        ASSERT_EQ(table.InsertIfCheaper(rels, plan),
                  model.InsertIfCheaper(rels, plan));
        break;
      case 1:
        table.Append(rels, plan);
        model.Append(rels, plan);
        break;
      case 2:
        table.ReplaceSingle(rels, plan);
        model.ReplaceSingle(rels, plan);
        break;
      case 3:
        table.Reserve(static_cast<size_t>(rng.UniformInt(0, 300)));
        break;
      case 4: {
        // A shard round: fresh classes, filled through every policy, then
        // adopted (and the shard's storage recycled for the next round).
        int classes = static_cast<int>(rng.UniformInt(1, 12));
        for (int c = 0; c < classes; ++c) {
          RelSet s(next_shard_class++);
          for (int k = static_cast<int>(rng.UniformInt(1, 10)); k > 0; --k) {
            PlanPtr p = RandomPlan(rng);
            if (rng.Bernoulli(0.8)) {
              ASSERT_EQ(shard.InsertPruned(s, p), model_shard.InsertPruned(s, p));
            } else {
              shard.Append(s, p);
              model_shard.Append(s, p);
            }
          }
        }
        table.AdoptClassesFrom(shard);
        model.AdoptClassesFrom(model_shard);
        EXPECT_EQ(shard.NumClasses(), 0u);
        EXPECT_EQ(shard.TotalPlans(), 0u);
        break;
      }
      default:
        ASSERT_EQ(table.InsertPruned(rels, plan),
                  model.InsertPruned(rels, plan));
        break;
    }
    if (!held.empty()) {
      if (rels == held_rels) {
        held = {};  // written: the span may be stale now
      } else {
        ASSERT_TRUE(std::equal(held.begin(), held.end(), held_copy.begin(),
                               held_copy.end()));
      }
    }
    if (held.empty() && rng.Bernoulli(0.05)) {
      held_rels = rels;
      held = table.Plans(rels);
      held_copy.assign(held.begin(), held.end());
    }
    if (step % 500 == 0) ExpectSameTables(table, model);
  }
  ExpectSameTables(table, model);
  EXPECT_GT(table.NumClasses(), 100u);  // several index growths
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpTableModelTest, ::testing::Range(0, 12));

TEST(KeySetDominance, AgreesWithSpanKeysDominateExhaustively) {
  // The branchless KeySetDominates (keys.h) is the hot-loop twin of the
  // span-based KeysDominate (catalog/functional_dependency.h); this pins
  // semantic agreement on every pair of key sets over a small universe.
  // Key sets are built through KeySet::Insert, so both sides compare the
  // same minimalized contents — exactly what plan nodes carry.
  std::vector<AttrSet> universe;
  for (uint64_t bits = 1; bits < 8; ++bits) universe.emplace_back(bits);
  std::vector<KeySet> sets;
  std::vector<std::vector<AttrSet>> raw;
  for (uint32_t pick = 0; pick < (1u << universe.size()); ++pick) {
    KeySet ks;
    for (size_t i = 0; i < universe.size(); ++i) {
      if (pick & (1u << i)) ks.Insert(universe[i]);
    }
    sets.push_back(ks);
    raw.emplace_back(ks.begin(), ks.end());
  }
  for (size_t a = 0; a < sets.size(); ++a) {
    for (size_t b = 0; b < sets.size(); ++b) {
      EXPECT_EQ(KeySetDominates(sets[a], sets[b]),
                KeysDominate(raw[a], raw[b]))
          << "a=" << a << " b=" << b;
    }
  }
}

}  // namespace
}  // namespace eadp
