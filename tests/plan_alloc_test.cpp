// Allocation guard for the exact DP's bookkeeping. A bounded re-plan
// (raw kEaPrune under a caller bound, the shape of a drift re-plan) keeps
// its plan classes in DP-table storage carved from one table-owned arena
// and interns key sets in a flat table, so the heap allocations of a run
// are a small fixed set per run — the run arena's first block, the
// table's index, the builder's masks — not one batch per plan class or
// per distinct key set. This binary replaces the global operator new to
// count them over a fixed query set and pins the count: a table that
// goes back to per-class containers, or an interner that allocates per
// entry, fails here. Its own executable, because the replacement is
// process-wide.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "plangen/plangen.h"
#include "queries/query_generator.h"
#include "queries/tpch.h"

namespace {

// Single-threaded counting window around each bounded Optimize call.
bool g_counting = false;
uint64_t g_allocations = 0;

}  // namespace

// Both forms: a sanitizer runtime supplies its own array form, which
// would otherwise bypass the scalar one.
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

/// The fixed query set: the six TPC-H queries and default random trees of
/// 4..12 relations.
std::vector<Query> FixedQueries() {
  std::vector<Query> queries;
  queries.push_back(MakeTpchEx());
  queries.push_back(MakeTpchQ1());
  queries.push_back(MakeTpchQ3());
  queries.push_back(MakeTpchQ5());
  queries.push_back(MakeTpchQ10());
  queries.push_back(MakeTpchQ18());
  for (int n = 4; n <= 12; ++n) {
    GeneratorOptions gen;
    gen.num_relations = n;
    queries.push_back(GenerateRandomQuery(gen, /*seed=*/1));
  }
  return queries;
}

TEST(PlanAlloc, BoundedReplanAllocationsArePinned) {
  // Recorded over these 15 re-plans at 1.1x the optimum: 4,123 while each
  // plan class held six std::vector columns in an unordered_map node and
  // the key interner allocated a hash node and a chain vector per
  // distinct key set; 973 with arena-backed classes under a flat index
  // and a flat interner. Fewer is an improvement: record the new total.
  // More means a per-class or per-key-set allocation came back.
  constexpr uint64_t kPinnedAllocations = 973;

  OptimizerOptions options;
  options.algorithm = Algorithm::kEaPrune;
  uint64_t total = 0;
  for (const Query& q : FixedQueries()) {
    OptimizeResult unbounded = Optimize(q, options);
    ASSERT_NE(unbounded.plan, nullptr);
    const double bound = unbounded.plan->cost * 1.1;
    g_allocations = 0;
    g_counting = true;
    OptimizeResult bounded = Optimize(q, options, bound);
    g_counting = false;
    ASSERT_NE(bounded.plan, nullptr);
    EXPECT_EQ(bounded.plan->cost, unbounded.plan->cost);
    total += g_allocations;
  }
  EXPECT_EQ(total, kPinnedAllocations)
      << "allocations of the bounded re-plans over the fixed set moved";
}

}  // namespace
}  // namespace eadp
