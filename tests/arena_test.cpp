// The bump arena underneath the plan memory model: growth, alignment,
// destructor bookkeeping, Reset() recycling, sized versus eager first
// blocks, and the PlanArena KeySet interner (pointer-equality contract
// used by the dominance fast path).

#include "common/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "plangen/plan.h"

namespace eadp {
namespace {

TEST(Arena, AllocationsAreAligned) {
  Arena arena;
  for (size_t align : {size_t{1}, size_t{2}, size_t{4}, size_t{8},
                       size_t{16}}) {
    for (size_t size : {size_t{1}, size_t{3}, size_t{8}, size_t{100}}) {
      void* p = arena.AllocateBytes(size, align);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u)
          << "size=" << size << " align=" << align;
    }
  }
}

TEST(Arena, GrowsAcrossBlocksWithoutMovingObjects) {
  Arena arena;
  // Far more than one 16 KiB initial block; every earlier value must stay
  // intact as new blocks are chained on.
  std::vector<uint64_t*> ptrs;
  for (uint64_t i = 0; i < 100000; ++i) {
    ptrs.push_back(arena.New<uint64_t>(i));
  }
  EXPECT_GT(arena.num_blocks(), 1u);
  EXPECT_GE(arena.bytes_used(), 100000 * sizeof(uint64_t));
  for (uint64_t i = 0; i < ptrs.size(); i += 997) {
    EXPECT_EQ(*ptrs[i], i);
  }
}

TEST(Arena, OversizedAllocationGetsOwnBlock) {
  Arena arena;
  // Larger than the maximum block size: must still succeed and be usable.
  constexpr size_t kHuge = 3u << 20;
  char* p = static_cast<char*>(arena.AllocateBytes(kHuge, 8));
  p[0] = 'a';
  p[kHuge - 1] = 'z';
  EXPECT_EQ(p[0], 'a');
  EXPECT_EQ(p[kHuge - 1], 'z');
  // The arena keeps allocating fine afterwards.
  int* q = arena.New<int>(7);
  EXPECT_EQ(*q, 7);
}

struct DtorCounter {
  explicit DtorCounter(int* counter) : counter_(counter) {}
  ~DtorCounter() { ++*counter_; }
  int* counter_;
  std::string payload = "non-trivial";  // forces a real destructor
};

TEST(Arena, RunsDestructorsOnReset) {
  int destroyed = 0;
  Arena arena;
  for (int i = 0; i < 10; ++i) arena.New<DtorCounter>(&destroyed);
  arena.New<int>(1);  // trivially destructible: no cleanup entry
  EXPECT_EQ(destroyed, 0);
  arena.Reset();
  EXPECT_EQ(destroyed, 10);
  // Reset does not double-run cleanups.
  arena.Reset();
  EXPECT_EQ(destroyed, 10);
}

TEST(Arena, RunsDestructorsOnDestruction) {
  int destroyed = 0;
  {
    Arena arena;
    for (int i = 0; i < 5; ++i) arena.New<DtorCounter>(&destroyed);
  }
  EXPECT_EQ(destroyed, 5);
}

TEST(Arena, ResetRecyclesSteadyStateBlock) {
  Arena arena;
  for (int i = 0; i < 100000; ++i) arena.New<uint64_t>(i);
  arena.Reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.num_blocks(), 1u);
  size_t reserved = arena.bytes_reserved();
  EXPECT_GT(reserved, 0u);
  // Refilling within the recycled block must not grow the reservation.
  size_t fits = reserved / sizeof(uint64_t);
  for (size_t i = 0; i < fits; ++i) arena.New<uint64_t>(i);
  EXPECT_EQ(arena.num_blocks(), 1u);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(Arena, SizedArenaHoldsExactlyItsFirstBlock) {
  // A sized arena reserves just what it was given (no 16 KiB minimum),
  // fills it without a second block, and grows like an eager arena once
  // full.
  Arena arena(1000);
  EXPECT_EQ(arena.num_blocks(), 1u);
  EXPECT_EQ(arena.bytes_reserved(), 1000u);
  EXPECT_EQ(arena.bytes_used(), 0u);
  for (int i = 0; i < 125; ++i) arena.New<uint64_t>(i);
  EXPECT_EQ(arena.num_blocks(), 1u);
  EXPECT_EQ(arena.bytes_used(), 1000u);
  uint64_t* overflow = arena.New<uint64_t>(7);
  EXPECT_EQ(*overflow, 7u);
  EXPECT_EQ(arena.num_blocks(), 2u);
  EXPECT_EQ(arena.bytes_reserved(), 1000u + (16u << 10));

  PlanArena plans(512);
  EXPECT_EQ(plans.arena().bytes_reserved(), 512u);
  EXPECT_EQ(Arena(0).bytes_reserved(), 1u);  // never an empty block
}

TEST(PlanArena, InternKeysDeduplicates) {
  PlanArena arena;
  AttrSet a = AttrSet::Single(1);
  AttrSet b = AttrSet::Single(2);
  const KeySet* k1 = arena.InternKeys(KeySet{a, b});
  const KeySet* k2 = arena.InternKeys(KeySet{a, b});
  const KeySet* k3 = arena.InternKeys(KeySet{a});
  const KeySet* empty1 = arena.InternKeys(KeySet{});
  const KeySet* empty2 = arena.InternKeys(KeySet{});
  EXPECT_EQ(k1, k2);  // equal contents -> same pointer (dominance fast path)
  EXPECT_NE(k1, k3);
  EXPECT_EQ(empty1, empty2);
  EXPECT_EQ(k1->size(), 2u);
  EXPECT_EQ(k3->size(), 1u);
  EXPECT_TRUE(empty1->empty());
}

TEST(KeySet, InsertKeepsMinimality) {
  KeySet keys;
  AttrSet k01;
  k01.Add(0);
  k01.Add(1);
  keys.Insert(k01);
  EXPECT_EQ(keys.size(), 1u);
  // A subset replaces its supersets.
  keys.Insert(AttrSet::Single(0));
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], AttrSet::Single(0));
  // A superset of a present key is dropped.
  keys.Insert(k01);
  EXPECT_EQ(keys.size(), 1u);
}

TEST(KeySet, InsertCapsAtMaxKeys) {
  KeySet keys;
  for (int i = 0; i < 2 * static_cast<int>(kMaxKeysPerPlan); ++i) {
    keys.Insert(AttrSet::Single(i));  // pairwise incomparable singletons
  }
  EXPECT_EQ(keys.size(), kMaxKeysPerPlan);
  EXPECT_TRUE(keys.full());
}

TEST(PlanArena, OptimizeResultKeepsPlanAliveAfterBuilderDies) {
  // The ownership contract of the refactor: OptimizeResult::arena is the
  // sole owner of the plan nodes; everything inside Optimize() may die.
  // (Exercised end-to-end implicitly everywhere; pinned explicitly here.)
  PlanNode* node = nullptr;
  std::shared_ptr<PlanArena> arena;
  {
    PlanArena local;  // builder-internal arenas die with the builder...
    (void)local;
    arena = std::make_shared<PlanArena>();
    node = arena->NewNode();
    node->op = PlanOp::kScan;
    node->relation = 3;
  }
  EXPECT_EQ(node->relation, 3);
  EXPECT_EQ(arena->nodes_allocated(), 1u);
}

}  // namespace
}  // namespace eadp
