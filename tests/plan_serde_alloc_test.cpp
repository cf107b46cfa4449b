// Allocation guard for DecodePlan (plangen/plan_serde.h). A decoded plan
// lives in one arena sized from the payload length, and every decoded
// vector is reserved from its count, so the heap allocations per decode
// are a fixed function of the blob. This binary replaces the global
// operator new to count them over a fixed blob set and pins the count: a
// decoder that brings back per-element vector regrowth, or an eager
// 16 KiB arena block, fails here. Its own executable, because the
// replacement is process-wide.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "plangen/plan_serde.h"
#include "plangen/session.h"
#include "queries/query_generator.h"
#include "queries/tpch.h"

namespace {

// Single-threaded counting window around each DecodePlan call.
bool g_counting = false;
uint64_t g_allocations = 0;

}  // namespace

// Both forms: a sanitizer runtime supplies its own array form, which
// would otherwise bypass the scalar one (the arena block is an array).
void* operator new(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace eadp {
namespace {

/// The fixed blob set: the six TPC-H queries and default random trees of
/// 4..10 relations, each through the adaptive facade.
std::vector<std::string> FixedBlobs() {
  std::vector<Query> queries;
  queries.push_back(MakeTpchEx());
  queries.push_back(MakeTpchQ1());
  queries.push_back(MakeTpchQ3());
  queries.push_back(MakeTpchQ5());
  queries.push_back(MakeTpchQ10());
  queries.push_back(MakeTpchQ18());
  for (int n = 4; n <= 10; ++n) {
    GeneratorOptions gen;
    gen.num_relations = n;
    queries.push_back(GenerateRandomQuery(gen, /*seed=*/1));
  }
  std::vector<std::string> blobs;
  for (const Query& q : queries) {
    OptimizeResult r = PlannerSession(OptimizerOptions{}).Optimize(q);
    EXPECT_NE(r.plan, nullptr);
    blobs.push_back(EncodePlan(r));
  }
  return blobs;
}

TEST(PlanSerdeAlloc, DecodeAllocationsArePinned) {
  // Recorded when decoding moved to one sized arena with reserved vectors
  // and no key interner: 507 over these 13 blobs, 873 before; 437 since
  // the arena keeps its destructor list in its own blocks (the list's
  // regrowth was 70 of the 507). Fewer is an improvement: record the new
  // total. More means a decode path that allocates per element or per
  // block again.
  constexpr uint64_t kPinnedAllocations = 437;

  uint64_t total = 0;
  for (const std::string& blob : FixedBlobs()) {
    OptimizeResult out;
    g_allocations = 0;
    g_counting = true;
    bool ok = DecodePlan(blob, &out);
    g_counting = false;
    ASSERT_TRUE(ok);
    total += g_allocations;
    // One untouched block, sized from the payload: never the DP's eager
    // 16 KiB block, never a second block.
    const Arena& arena = out.arena->arena();
    EXPECT_EQ(arena.num_blocks(), 1u);
    EXPECT_LT(arena.bytes_reserved(), 16u << 10);
    EXPECT_LE(out.arena->bytes_used(), arena.bytes_reserved());
  }
  EXPECT_EQ(total, kPinnedAllocations)
      << "DecodePlan allocations over the fixed blob set moved";
}

}  // namespace
}  // namespace eadp
