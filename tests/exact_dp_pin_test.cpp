// Exact-path pin: the exact DP's plan cost bits and work counters on a
// fixed corpus, recorded once and compared on every run — the exact-DP
// twin of LargeQueryGooPin. A change that claims "same plans, same work"
// (a cheaper primitive, a precomputed mask, a different data layout under
// the DP) must leave every row here untouched; a change that moves a row
// changes plans or work and must say so.
//
// Rows cover the adaptive facade (OptimizeAdaptiveUncached: GOO-seeded
// bound for kEaAll/kEaPrune) and raw Optimize (unbounded) for kEaPrune,
// kEaAll (n <= 7) and kDphyp, plus raw kEaPrune under a caller bound of
// 1.0x and 1.1x the unbounded optimum ("raw x1.0", "raw x1.1": the
// bounded re-plan, where most plan classes end up empty), on seed-1
// random trees (default mix and the outer-heavy preset), chains, stars and
// cycles with n = 3..12, and the six TPC-H skeletons. On a mismatch the
// test prints the row as it reads now, in table syntax.

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "plangen/plangen.h"
#include "queries/query_generator.h"
#include "queries/tpch.h"

namespace eadp {
namespace {

struct PinQuery {
  std::string label;
  Query query;
  /// Run raw (unbounded) Optimize too. Unbounded stars past 10 relations
  /// take seconds (n=12: ~17 s), so they are pinned through the facade
  /// only.
  bool raw = true;
};

std::vector<PinQuery> PinCorpus() {
  std::vector<PinQuery> corpus;
  for (int n = 3; n <= 12; ++n) {
    std::string suffix = " n=" + std::to_string(n);
    GeneratorOptions random;
    random.num_relations = n;
    corpus.push_back({"random" + suffix, GenerateRandomQuery(random, 1)});
    corpus.push_back(
        {"outer" + suffix, GenerateRandomQuery(OuterHeavyOptions(n), 1)});
    for (QueryTopology t :
         {QueryTopology::kChain, QueryTopology::kStar, QueryTopology::kCycle}) {
      GeneratorOptions gen;
      gen.topology = t;
      gen.num_relations = n;
      corpus.push_back({TopologyName(t) + suffix, GenerateRandomQuery(gen, 1),
                        t != QueryTopology::kStar || n <= 10});
    }
  }
  const char* names[] = {"tpch ex", "tpch q1", "tpch q3",
                         "tpch q5", "tpch q10", "tpch q18"};
  Query (*makers[])() = {&MakeTpchEx, &MakeTpchQ1, &MakeTpchQ3,
                         &MakeTpchQ5, &MakeTpchQ10, &MakeTpchQ18};
  for (size_t i = 0; i < 6; ++i) corpus.push_back({names[i], makers[i]()});
  return corpus;
}

struct Pin {
  const char* query;
  const char* path;  ///< "facade" or "raw"
  Algorithm algorithm;
  uint64_t cost_bits;
  uint64_t ccp_count;
  uint64_t plans_built;
  uint64_t table_plans;
  uint64_t pruned_candidates;
  uint64_t pruned_existing;
};

constexpr Algorithm kEaPrune = Algorithm::kEaPrune;
constexpr Algorithm kEaAll = Algorithm::kEaAll;
constexpr Algorithm kDphyp = Algorithm::kDphyp;

// clang-format off
const Pin kPins[] = {
    {"random n=3", "facade", kEaPrune, 0x407165b9ee5f2c69ull, 4, 29, 7, 0, 3},
    {"random n=3", "raw", kEaPrune, 0x407165b9ee5f2c69ull, 4, 29, 7, 0, 3},
    {"random n=3", "raw x1.0", kEaPrune, 0x407165b9ee5f2c69ull, 4, 26, 6, 0, 0},
    {"random n=3", "raw x1.1", kEaPrune, 0x407165b9ee5f2c69ull, 4, 26, 6, 0, 1},
    {"random n=3", "facade", kEaAll, 0x407165b9ee5f2c69ull, 4, 57, 10, 0, 0},
    {"random n=3", "raw", kEaAll, 0x407165b9ee5f2c69ull, 4, 57, 10, 0, 0},
    {"random n=3", "facade", kDphyp, 0x408de75cd8e73ce2ull, 4, 9, 6, 0, 0},
    {"random n=3", "raw", kDphyp, 0x408de75cd8e73ce2ull, 4, 9, 6, 0, 0},
    {"outer n=3", "facade", kEaPrune, 0x40c2b56f6f431d1aull, 4, 34, 6, 0, 0},
    {"outer n=3", "raw", kEaPrune, 0x40c2b56f6f431d1aull, 4, 34, 6, 0, 0},
    {"outer n=3", "raw x1.0", kEaPrune, 0x40c2b56f6f431d1aull, 4, 34, 6, 0, 0},
    {"outer n=3", "raw x1.1", kEaPrune, 0x40c2b56f6f431d1aull, 4, 34, 6, 0, 0},
    {"outer n=3", "facade", kEaAll, 0x40c2b56f6f431d1aull, 4, 34, 6, 0, 0},
    {"outer n=3", "raw", kEaAll, 0x40c2b56f6f431d1aull, 4, 34, 6, 0, 0},
    {"outer n=3", "facade", kDphyp, 0x40d091287c275131ull, 4, 7, 5, 0, 0},
    {"outer n=3", "raw", kDphyp, 0x40d091287c275131ull, 4, 7, 5, 0, 0},
    {"chain n=3", "facade", kEaPrune, 0x405c1ae1ec7bf266ull, 4, 26, 7, 0, 3},
    {"chain n=3", "raw", kEaPrune, 0x405c1ae1ec7bf266ull, 4, 26, 7, 0, 3},
    {"chain n=3", "raw x1.0", kEaPrune, 0x405c1ae1ec7bf266ull, 4, 18, 5, 0, 1},
    {"chain n=3", "raw x1.1", kEaPrune, 0x405c1ae1ec7bf266ull, 4, 18, 5, 0, 1},
    {"chain n=3", "facade", kEaAll, 0x405c1ae1ec7bf266ull, 4, 45, 10, 0, 0},
    {"chain n=3", "raw", kEaAll, 0x405c1ae1ec7bf266ull, 4, 45, 10, 0, 0},
    {"chain n=3", "facade", kDphyp, 0x407b9fbc169dba58ull, 4, 9, 6, 0, 0},
    {"chain n=3", "raw", kDphyp, 0x407b9fbc169dba58ull, 4, 9, 6, 0, 0},
    {"star n=3", "facade", kEaPrune, 0x4042922c9c0251c1ull, 4, 33, 8, 0, 2},
    {"star n=3", "raw", kEaPrune, 0x4042922c9c0251c1ull, 4, 33, 8, 0, 2},
    {"star n=3", "raw x1.0", kEaPrune, 0x4042922c9c0251c1ull, 4, 19, 5, 0, 0},
    {"star n=3", "raw x1.1", kEaPrune, 0x4042922c9c0251c1ull, 4, 19, 5, 0, 0},
    {"star n=3", "facade", kEaAll, 0x4042922c9c0251c1ull, 4, 45, 10, 0, 0},
    {"star n=3", "raw", kEaAll, 0x4042922c9c0251c1ull, 4, 45, 10, 0, 0},
    {"star n=3", "facade", kDphyp, 0x4042922c9c0251c1ull, 4, 9, 6, 0, 0},
    {"star n=3", "raw", kDphyp, 0x4042922c9c0251c1ull, 4, 9, 6, 0, 0},
    {"cycle n=3", "facade", kEaPrune, 0x4064ddeb09fce8b6ull, 2, 17, 6, 0, 2},
    {"cycle n=3", "raw", kEaPrune, 0x4064ddeb09fce8b6ull, 2, 17, 6, 0, 2},
    {"cycle n=3", "raw x1.0", kEaPrune, 0x4064ddeb09fce8b6ull, 2, 15, 5, 0, 0},
    {"cycle n=3", "raw x1.1", kEaPrune, 0x4064ddeb09fce8b6ull, 2, 15, 5, 0, 0},
    {"cycle n=3", "facade", kEaAll, 0x4064ddeb09fce8b6ull, 2, 29, 8, 0, 0},
    {"cycle n=3", "raw", kEaAll, 0x4064ddeb09fce8b6ull, 2, 29, 8, 0, 0},
    {"cycle n=3", "facade", kDphyp, 0x408a1237274d4348ull, 2, 7, 5, 0, 0},
    {"cycle n=3", "raw", kDphyp, 0x408a1237274d4348ull, 2, 7, 5, 0, 0},
    {"random n=4", "facade", kEaPrune, 0x40b15dc102ef3178ull, 12, 152, 18, 16, 9},
    {"random n=4", "raw", kEaPrune, 0x40b15dc102ef3178ull, 12, 152, 18, 16, 9},
    {"random n=4", "raw x1.0", kEaPrune, 0x40b15dc102ef3178ull, 12, 54, 9, 0, 1},
    {"random n=4", "raw x1.1", kEaPrune, 0x40b15dc102ef3178ull, 12, 54, 9, 0, 1},
    {"random n=4", "facade", kEaAll, 0x40b15dc102ef3178ull, 12, 577, 51, 0, 0},
    {"random n=4", "raw", kEaAll, 0x40b15dc102ef3178ull, 12, 577, 51, 0, 0},
    {"random n=4", "facade", kDphyp, 0x40d0a8be809715eeull, 12, 18, 11, 0, 0},
    {"random n=4", "raw", kDphyp, 0x40d0a8be809715eeull, 12, 18, 11, 0, 0},
    {"outer n=4", "facade", kEaPrune, 0x40565d8439416c96ull, 10, 106, 16, 9, 2},
    {"outer n=4", "raw", kEaPrune, 0x40565d8439416c96ull, 10, 106, 16, 9, 2},
    {"outer n=4", "raw x1.0", kEaPrune, 0x40565d8439416c96ull, 10, 31, 7, 0, 0},
    {"outer n=4", "raw x1.1", kEaPrune, 0x40565d8439416c96ull, 10, 31, 7, 0, 0},
    {"outer n=4", "facade", kEaAll, 0x40565d8439416c96ull, 10, 224, 31, 0, 0},
    {"outer n=4", "raw", kEaAll, 0x40565d8439416c96ull, 10, 224, 31, 0, 0},
    {"outer n=4", "facade", kDphyp, 0x40565d8439416c96ull, 10, 16, 10, 0, 0},
    {"outer n=4", "raw", kDphyp, 0x40565d8439416c96ull, 10, 16, 10, 0, 0},
    {"chain n=4", "facade", kEaPrune, 0x4062a83c9b31855eull, 10, 89, 15, 5, 4},
    {"chain n=4", "raw", kEaPrune, 0x4062a83c9b31855eull, 10, 89, 15, 5, 4},
    {"chain n=4", "raw x1.0", kEaPrune, 0x4062a83c9b31855eull, 10, 46, 9, 1, 2},
    {"chain n=4", "raw x1.1", kEaPrune, 0x4062a83c9b31855eull, 10, 46, 9, 1, 2},
    {"chain n=4", "facade", kEaAll, 0x4062a83c9b31855eull, 10, 297, 36, 0, 0},
    {"chain n=4", "raw", kEaAll, 0x4062a83c9b31855eull, 10, 297, 36, 0, 0},
    {"chain n=4", "facade", kDphyp, 0x4079f43eab5864c5ull, 10, 16, 10, 0, 0},
    {"chain n=4", "raw", kDphyp, 0x4079f43eab5864c5ull, 10, 16, 10, 0, 0},
    {"star n=4", "facade", kEaPrune, 0x404ff9edaf437c44ull, 12, 135, 23, 11, 8},
    {"star n=4", "raw", kEaPrune, 0x404ff9edaf437c44ull, 12, 135, 23, 11, 8},
    {"star n=4", "raw x1.0", kEaPrune, 0x404ff9edaf437c44ull, 12, 45, 7, 0, 0},
    {"star n=4", "raw x1.1", kEaPrune, 0x404ff9edaf437c44ull, 12, 45, 7, 0, 0},
    {"star n=4", "facade", kEaAll, 0x404ff9edaf437c44ull, 12, 352, 60, 0, 0},
    {"star n=4", "raw", kEaAll, 0x404ff9edaf437c44ull, 12, 352, 60, 0, 0},
    {"star n=4", "facade", kDphyp, 0x404ff9edaf437c44ull, 12, 18, 11, 0, 0},
    {"star n=4", "raw", kDphyp, 0x404ff9edaf437c44ull, 12, 18, 11, 0, 0},
    {"cycle n=4", "facade", kEaPrune, 0x405c3a695b248a67ull, 5, 52, 11, 2, 3},
    {"cycle n=4", "raw", kEaPrune, 0x405c3a695b248a67ull, 5, 52, 11, 2, 3},
    {"cycle n=4", "raw x1.0", kEaPrune, 0x405c3a695b248a67ull, 5, 29, 7, 0, 0},
    {"cycle n=4", "raw x1.1", kEaPrune, 0x405c3a695b248a67ull, 5, 29, 7, 0, 0},
    {"cycle n=4", "facade", kEaAll, 0x405c3a695b248a67ull, 5, 187, 24, 0, 0},
    {"cycle n=4", "raw", kEaAll, 0x405c3a695b248a67ull, 5, 187, 24, 0, 0},
    {"cycle n=4", "facade", kDphyp, 0x407bd874c0d48f96ull, 5, 11, 8, 0, 0},
    {"cycle n=4", "raw", kDphyp, 0x407bd874c0d48f96ull, 5, 11, 8, 0, 0},
    {"random n=5", "facade", kEaPrune, 0x40804e3b9f2f63a8ull, 25, 22, 10, 0, 0},
    {"random n=5", "raw", kEaPrune, 0x40804e3b9f2f63a8ull, 25, 84, 21, 16, 5},
    {"random n=5", "raw x1.0", kEaPrune, 0x40804e3b9f2f63a8ull, 25, 22, 10, 0, 0},
    {"random n=5", "raw x1.1", kEaPrune, 0x40804e3b9f2f63a8ull, 25, 25, 11, 1, 0},
    {"random n=5", "facade", kEaAll, 0x40804e3b9f2f63a8ull, 25, 22, 10, 0, 0},
    {"random n=5", "raw", kEaAll, 0x40804e3b9f2f63a8ull, 25, 222, 57, 0, 0},
    {"random n=5", "facade", kDphyp, 0x40804e3b9f2f63a8ull, 25, 32, 17, 0, 0},
    {"random n=5", "raw", kDphyp, 0x40804e3b9f2f63a8ull, 25, 32, 17, 0, 0},
    {"outer n=5", "facade", kEaPrune, 0x40df70fd2d28add7ull, 25, 52, 14, 12, 0},
    {"outer n=5", "raw", kEaPrune, 0x40df70fd2d28add7ull, 25, 52, 14, 12, 0},
    {"outer n=5", "raw x1.0", kEaPrune, 0x40df70fd2d28add7ull, 25, 52, 14, 12, 0},
    {"outer n=5", "raw x1.1", kEaPrune, 0x40df70fd2d28add7ull, 25, 52, 14, 12, 0},
    {"outer n=5", "facade", kEaAll, 0x40df70fd2d28add7ull, 25, 114, 32, 0, 0},
    {"outer n=5", "raw", kEaAll, 0x40df70fd2d28add7ull, 25, 114, 32, 0, 0},
    {"outer n=5", "facade", kDphyp, 0x40df70fd2d28add7ull, 25, 20, 13, 0, 0},
    {"outer n=5", "raw", kDphyp, 0x40df70fd2d28add7ull, 25, 20, 13, 0, 0},
    {"chain n=5", "facade", kEaPrune, 0x4058354711850896ull, 20, 174, 20, 17, 3},
    {"chain n=5", "raw", kEaPrune, 0x4058354711850896ull, 20, 543, 46, 50, 14},
    {"chain n=5", "raw x1.0", kEaPrune, 0x4058354711850896ull, 20, 131, 17, 8, 1},
    {"chain n=5", "raw x1.1", kEaPrune, 0x4058354711850896ull, 20, 131, 17, 9, 1},
    {"chain n=5", "facade", kEaAll, 0x4058354711850896ull, 20, 674, 57, 0, 0},
    {"chain n=5", "raw", kEaAll, 0x4058354711850896ull, 20, 4069, 268, 0, 0},
    {"chain n=5", "facade", kDphyp, 0x406ed3e11a594bd2ull, 20, 27, 15, 0, 0},
    {"chain n=5", "raw", kDphyp, 0x406ed3e11a594bd2ull, 20, 27, 15, 0, 0},
    {"star n=5", "facade", kEaPrune, 0x404af04a5416709aull, 32, 82, 10, 0, 0},
    {"star n=5", "raw", kEaPrune, 0x404af04a5416709aull, 32, 846, 116, 113, 35},
    {"star n=5", "raw x1.0", kEaPrune, 0x404af04a5416709aull, 32, 82, 10, 0, 0},
    {"star n=5", "raw x1.1", kEaPrune, 0x404af04a5416709aull, 32, 82, 10, 2, 0},
    {"star n=5", "facade", kEaAll, 0x404af04a5416709aull, 32, 82, 10, 0, 0},
    {"star n=5", "raw", kEaAll, 0x404af04a5416709aull, 32, 6455, 815, 0, 0},
    {"star n=5", "facade", kDphyp, 0x404af04a5416709aull, 32, 39, 20, 0, 0},
    {"star n=5", "raw", kDphyp, 0x404af04a5416709aull, 32, 39, 20, 0, 0},
    {"cycle n=5", "facade", kEaPrune, 0x4052d6d1e1ee4629ull, 11, 64, 13, 5, 2},
    {"cycle n=5", "raw", kEaPrune, 0x4052d6d1e1ee4629ull, 11, 202, 29, 25, 6},
    {"cycle n=5", "raw x1.0", kEaPrune, 0x4052d6d1e1ee4629ull, 11, 58, 12, 2, 0},
    {"cycle n=5", "raw x1.1", kEaPrune, 0x4052d6d1e1ee4629ull, 11, 58, 12, 4, 0},
    {"cycle n=5", "facade", kEaAll, 0x4052d6d1e1ee4629ull, 11, 172, 22, 0, 0},
    {"cycle n=5", "raw", kEaAll, 0x4052d6d1e1ee4629ull, 11, 1601, 148, 0, 0},
    {"cycle n=5", "facade", kDphyp, 0x40603a68dd55fb29ull, 11, 18, 12, 0, 0},
    {"cycle n=5", "raw", kDphyp, 0x40603a68dd55fb29ull, 11, 18, 12, 0, 0},
    {"random n=6", "facade", kEaPrune, 0x40e00c5100779ecbull, 61, 41, 11, 0, 1},
    {"random n=6", "raw", kEaPrune, 0x40e00c5100779ecbull, 61, 256, 32, 28, 5},
    {"random n=6", "raw x1.0", kEaPrune, 0x40e00c5100779ecbull, 61, 41, 11, 0, 1},
    {"random n=6", "raw x1.1", kEaPrune, 0x40e00c5100779ecbull, 61, 223, 28, 14, 5},
    {"random n=6", "facade", kEaAll, 0x40e00c5100779ecbull, 61, 44, 12, 0, 0},
    {"random n=6", "raw", kEaAll, 0x40e00c5100779ecbull, 61, 1945, 213, 0, 0},
    {"random n=6", "facade", kDphyp, 0x40e99e9d5ac628f6ull, 61, 22, 15, 0, 0},
    {"random n=6", "raw", kDphyp, 0x40e99e9d5ac628f6ull, 61, 22, 15, 0, 0},
    {"outer n=6", "facade", kEaPrune, 0x4105a5c1e5da7fdbull, 47, 48, 13, 0, 4},
    {"outer n=6", "raw", kEaPrune, 0x4105a5c1e5da7fdbull, 47, 48, 13, 0, 4},
    {"outer n=6", "raw x1.0", kEaPrune, 0x4105a5c1e5da7fdbull, 47, 48, 13, 0, 4},
    {"outer n=6", "raw x1.1", kEaPrune, 0x4105a5c1e5da7fdbull, 47, 48, 13, 0, 4},
    {"outer n=6", "facade", kEaAll, 0x4105a5c1e5da7fdbull, 47, 105, 20, 0, 0},
    {"outer n=6", "raw", kEaAll, 0x4105a5c1e5da7fdbull, 47, 355, 45, 0, 0},
    {"outer n=6", "facade", kDphyp, 0x4113c347ec8bd664ull, 47, 13, 11, 0, 0},
    {"outer n=6", "raw", kDphyp, 0x4113c347ec8bd664ull, 47, 13, 11, 0, 0},
    {"chain n=6", "facade", kEaPrune, 0x4032b9fa5ce99f0cull, 35, 64, 11, 0, 0},
    {"chain n=6", "raw", kEaPrune, 0x4032b9fa5ce99f0cull, 35, 1575, 138, 256, 56},
    {"chain n=6", "raw x1.0", kEaPrune, 0x4032b9fa5ce99f0cull, 35, 64, 11, 0, 0},
    {"chain n=6", "raw x1.1", kEaPrune, 0x4032b9fa5ce99f0cull, 35, 64, 11, 0, 0},
    {"chain n=6", "facade", kEaAll, 0x4032b9fa5ce99f0cull, 35, 64, 11, 0, 0},
    {"chain n=6", "raw", kEaAll, 0x4032b9fa5ce99f0cull, 35, 28489, 2166, 0, 0},
    {"chain n=6", "facade", kDphyp, 0x4032b9fa5ce99f0cull, 35, 43, 21, 0, 0},
    {"chain n=6", "raw", kDphyp, 0x4032b9fa5ce99f0cull, 35, 43, 21, 0, 0},
    {"star n=6", "facade", kEaPrune, 0x4032c97b5fd978e6ull, 80, 114, 13, 2, 0},
    {"star n=6", "raw", kEaPrune, 0x4032c97b5fd978e6ull, 80, 2485, 353, 596, 119},
    {"star n=6", "raw x1.0", kEaPrune, 0x4032c97b5fd978e6ull, 80, 114, 13, 2, 0},
    {"star n=6", "raw x1.1", kEaPrune, 0x4032c97b5fd978e6ull, 80, 147, 16, 6, 1},
    {"star n=6", "facade", kEaAll, 0x4032c97b5fd978e6ull, 80, 128, 15, 0, 0},
    {"star n=6", "raw", kEaAll, 0x4032c97b5fd978e6ull, 80, 55528, 8234, 0, 0},
    {"star n=6", "facade", kDphyp, 0x4032c97b5fd978e6ull, 80, 88, 37, 0, 0},
    {"star n=6", "raw", kDphyp, 0x4032c97b5fd978e6ull, 80, 88, 37, 0, 0},
    {"cycle n=6", "facade", kEaPrune, 0x404e24d54f0f92fdull, 21, 109, 16, 6, 0},
    {"cycle n=6", "raw", kEaPrune, 0x404e24d54f0f92fdull, 21, 915, 95, 196, 34},
    {"cycle n=6", "raw x1.0", kEaPrune, 0x404e24d54f0f92fdull, 21, 109, 16, 6, 0},
    {"cycle n=6", "raw x1.1", kEaPrune, 0x404e24d54f0f92fdull, 21, 164, 23, 12, 0},
    {"cycle n=6", "facade", kEaAll, 0x404e24d54f0f92fdull, 21, 181, 26, 0, 0},
    {"cycle n=6", "raw", kEaAll, 0x404e24d54f0f92fdull, 21, 18008, 1503, 0, 0},
    {"cycle n=6", "facade", kDphyp, 0x404e24d54f0f92fdull, 21, 29, 17, 0, 0},
    {"cycle n=6", "raw", kDphyp, 0x404e24d54f0f92fdull, 21, 29, 17, 0, 0},
    {"random n=7", "facade", kEaPrune, 0x40b843203b4853a4ull, 70, 369, 56, 34, 7},
    {"random n=7", "raw", kEaPrune, 0x40b843203b4853a4ull, 70, 1165, 138, 283, 71},
    {"random n=7", "raw x1.0", kEaPrune, 0x40b843203b4853a4ull, 70, 93, 20, 4, 1},
    {"random n=7", "raw x1.1", kEaPrune, 0x40b843203b4853a4ull, 70, 207, 35, 20, 2},
    {"random n=7", "facade", kEaAll, 0x40b843203b4853a4ull, 70, 1159, 171, 0, 0},
    {"random n=7", "raw", kEaAll, 0x40b843203b4853a4ull, 70, 30286, 4117, 0, 0},
    {"random n=7", "facade", kDphyp, 0x40b843203b4853a4ull, 70, 54, 26, 0, 0},
    {"random n=7", "raw", kDphyp, 0x40b843203b4853a4ull, 70, 54, 26, 0, 0},
    {"outer n=7", "facade", kEaPrune, 0x40f3a930d9c1e116ull, 77, 226, 39, 29, 8},
    {"outer n=7", "raw", kEaPrune, 0x40f3a930d9c1e116ull, 77, 360, 48, 70, 32},
    {"outer n=7", "raw x1.0", kEaPrune, 0x40f3a930d9c1e116ull, 77, 136, 29, 9, 1},
    {"outer n=7", "raw x1.1", kEaPrune, 0x40f3a930d9c1e116ull, 77, 199, 37, 27, 3},
    {"outer n=7", "facade", kEaAll, 0x40f3a930d9c1e116ull, 77, 730, 112, 0, 0},
    {"outer n=7", "raw", kEaAll, 0x40f3a930d9c1e116ull, 77, 6643, 898, 0, 0},
    {"outer n=7", "facade", kDphyp, 0x40f77b6e2afab182ull, 77, 38, 22, 0, 0},
    {"outer n=7", "raw", kDphyp, 0x40f77b6e2afab182ull, 77, 38, 22, 0, 0},
    {"chain n=7", "facade", kEaPrune, 0x40401798d1ee2cd8ull, 56, 101, 15, 4, 0},
    {"chain n=7", "raw", kEaPrune, 0x40401798d1ee2cd8ull, 56, 4439, 314, 908, 156},
    {"chain n=7", "raw x1.0", kEaPrune, 0x40401798d1ee2cd8ull, 56, 101, 15, 4, 0},
    {"chain n=7", "raw x1.1", kEaPrune, 0x40401798d1ee2cd8ull, 56, 121, 17, 6, 0},
    {"chain n=7", "facade", kEaAll, 0x40401798d1ee2cd8ull, 56, 149, 19, 0, 0},
    {"chain n=7", "raw", kEaAll, 0x40401798d1ee2cd8ull, 56, 302332, 24408, 0, 0},
    {"chain n=7", "facade", kDphyp, 0x40401798d1ee2cd8ull, 56, 65, 28, 0, 0},
    {"chain n=7", "raw", kDphyp, 0x40401798d1ee2cd8ull, 56, 65, 28, 0, 0},
    {"star n=7", "facade", kEaPrune, 0x403c7962ab492563ull, 192, 193, 18, 4, 1},
    {"star n=7", "raw", kEaPrune, 0x403c7962ab492563ull, 192, 11316, 1792, 2808, 598},
    {"star n=7", "raw x1.0", kEaPrune, 0x403c7962ab492563ull, 192, 193, 18, 4, 1},
    {"star n=7", "raw x1.1", kEaPrune, 0x403c7962ab492563ull, 192, 348, 35, 29, 11},
    {"star n=7", "facade", kEaAll, 0x403c7962ab492563ull, 192, 257, 23, 0, 0},
    {"star n=7", "raw", kEaAll, 0x403c7962ab492563ull, 192, 913193, 130154, 0, 0},
    {"star n=7", "facade", kDphyp, 0x403c7962ab492563ull, 192, 201, 70, 0, 0},
    {"star n=7", "raw", kDphyp, 0x403c7962ab492563ull, 192, 201, 70, 0, 0},
    {"cycle n=7", "facade", kEaPrune, 0x40408aa14083130dull, 36, 74, 13, 1, 0},
    {"cycle n=7", "raw", kEaPrune, 0x40408aa14083130dull, 36, 1669, 218, 567, 94},
    {"cycle n=7", "raw x1.0", kEaPrune, 0x40408aa14083130dull, 36, 74, 13, 1, 0},
    {"cycle n=7", "raw x1.1", kEaPrune, 0x40408aa14083130dull, 36, 74, 13, 2, 0},
    {"cycle n=7", "facade", kEaAll, 0x40408aa14083130dull, 36, 80, 14, 0, 0},
    {"cycle n=7", "raw", kEaAll, 0x40408aa14083130dull, 36, 99288, 14861, 0, 0},
    {"cycle n=7", "facade", kDphyp, 0x40408aa14083130dull, 36, 45, 23, 0, 0},
    {"cycle n=7", "raw", kDphyp, 0x40408aa14083130dull, 36, 45, 23, 0, 0},
    {"random n=8", "facade", kEaPrune, 0x40a70d64fd08ce2full, 150, 139, 36, 14, 18},
    {"random n=8", "raw", kEaPrune, 0x40a70d64fd08ce2full, 150, 167, 39, 36, 29},
    {"random n=8", "raw x1.0", kEaPrune, 0x40a70d64fd08ce2full, 150, 139, 36, 14, 18},
    {"random n=8", "raw x1.1", kEaPrune, 0x40a70d64fd08ce2full, 150, 139, 36, 14, 18},
    {"random n=8", "facade", kDphyp, 0x40c5902d016693d5ull, 150, 40, 24, 0, 0},
    {"random n=8", "raw", kDphyp, 0x40c5902d016693d5ull, 150, 40, 24, 0, 0},
    {"outer n=8", "facade", kEaPrune, 0x40b9988d9db4fdd0ull, 173, 38, 17, 0, 3},
    {"outer n=8", "raw", kEaPrune, 0x40b9988d9db4fdd0ull, 173, 44, 18, 0, 5},
    {"outer n=8", "raw x1.0", kEaPrune, 0x40b9988d9db4fdd0ull, 173, 32, 16, 0, 3},
    {"outer n=8", "raw x1.1", kEaPrune, 0x40b9988d9db4fdd0ull, 173, 32, 16, 0, 3},
    {"outer n=8", "facade", kDphyp, 0x40ca95403a1f9cd1ull, 173, 19, 16, 0, 0},
    {"outer n=8", "raw", kDphyp, 0x40ca95403a1f9cd1ull, 173, 19, 16, 0, 0},
    {"chain n=8", "facade", kEaPrune, 0x4035486599c927b1ull, 84, 248, 32, 23, 1},
    {"chain n=8", "raw", kEaPrune, 0x4035486599c927b1ull, 84, 10130, 579, 1999, 248},
    {"chain n=8", "raw x1.0", kEaPrune, 0x4035486599c927b1ull, 84, 100, 16, 1, 0},
    {"chain n=8", "raw x1.1", kEaPrune, 0x4035486599c927b1ull, 84, 172, 24, 11, 0},
    {"chain n=8", "facade", kDphyp, 0x4035486599c927b1ull, 84, 94, 36, 0, 0},
    {"chain n=8", "raw", kDphyp, 0x4035486599c927b1ull, 84, 94, 36, 0, 0},
    {"star n=8", "facade", kEaPrune, 0x403fec68803ba5daull, 448, 201, 18, 1, 1},
    {"star n=8", "raw", kEaPrune, 0x403fec68803ba5daull, 448, 30620, 4592, 10432, 2818},
    {"star n=8", "raw x1.0", kEaPrune, 0x403fec68803ba5daull, 448, 201, 18, 1, 1},
    {"star n=8", "raw x1.1", kEaPrune, 0x403fec68803ba5daull, 448, 971, 80, 141, 26},
    {"star n=8", "facade", kDphyp, 0x403fec68803ba5daull, 448, 458, 135, 0, 0},
    {"star n=8", "raw", kDphyp, 0x403fec68803ba5daull, 448, 458, 135, 0, 0},
    {"cycle n=8", "facade", kEaPrune, 0x4036f85d688cbe3aull, 57, 102, 17, 4, 0},
    {"cycle n=8", "raw", kEaPrune, 0x4036f85d688cbe3aull, 57, 3198, 358, 1303, 140},
    {"cycle n=8", "raw x1.0", kEaPrune, 0x4036f85d688cbe3aull, 57, 102, 17, 4, 0},
    {"cycle n=8", "raw x1.1", kEaPrune, 0x4036f85d688cbe3aull, 57, 111, 19, 6, 0},
    {"cycle n=8", "facade", kDphyp, 0x4036f85d688cbe3aull, 57, 67, 30, 0, 0},
    {"cycle n=8", "raw", kDphyp, 0x4036f85d688cbe3aull, 57, 67, 30, 0, 0},
    {"random n=9", "facade", kEaPrune, 0x40d126f248a006deull, 578, 47, 30, 10, 4},
    {"random n=9", "raw", kEaPrune, 0x40d126f248a006deull, 578, 50, 31, 13, 4},
    {"random n=9", "raw x1.0", kEaPrune, 0x40d126f248a006deull, 578, 47, 30, 10, 4},
    {"random n=9", "raw x1.1", kEaPrune, 0x40d126f248a006deull, 578, 47, 30, 10, 4},
    {"random n=9", "facade", kDphyp, 0x40d126f248a006deull, 578, 44, 27, 0, 0},
    {"random n=9", "raw", kDphyp, 0x40d126f248a006deull, 578, 44, 27, 0, 0},
    {"outer n=9", "facade", kEaPrune, 0x41058638d89055d8ull, 359, 21, 18, 1, 0},
    {"outer n=9", "raw", kEaPrune, 0x41058638d89055d8ull, 359, 21, 18, 1, 0},
    {"outer n=9", "raw x1.0", kEaPrune, 0x41058638d89055d8ull, 359, 21, 18, 1, 0},
    {"outer n=9", "raw x1.1", kEaPrune, 0x41058638d89055d8ull, 359, 21, 18, 1, 0},
    {"outer n=9", "facade", kDphyp, 0x41058638d89055d8ull, 359, 21, 18, 0, 0},
    {"outer n=9", "raw", kDphyp, 0x41058638d89055d8ull, 359, 21, 18, 0, 0},
    {"chain n=9", "facade", kEaPrune, 0x404013a740e41619ull, 120, 215, 35, 14, 6},
    {"chain n=9", "raw", kEaPrune, 0x404013a740e41619ull, 120, 14397, 833, 2958, 440},
    {"chain n=9", "raw x1.0", kEaPrune, 0x404013a740e41619ull, 120, 130, 22, 0, 1},
    {"chain n=9", "raw x1.1", kEaPrune, 0x404013a740e41619ull, 120, 153, 26, 4, 1},
    {"chain n=9", "facade", kDphyp, 0x404013a740e41619ull, 120, 131, 45, 0, 0},
    {"chain n=9", "raw", kDphyp, 0x404013a740e41619ull, 120, 131, 45, 0, 0},
    {"star n=9", "facade", kEaPrune, 0x402ba92a1cfc968bull, 1024, 372, 31, 6, 8},
    {"star n=9", "raw", kEaPrune, 0x402ba92a1cfc968bull, 1024, 80367, 11957, 29552, 8745},
    {"star n=9", "raw x1.0", kEaPrune, 0x402ba92a1cfc968bull, 1024, 372, 31, 6, 8},
    {"star n=9", "raw x1.1", kEaPrune, 0x402ba92a1cfc968bull, 1024, 1881, 167, 307, 106},
    {"star n=9", "facade", kDphyp, 0x402ba92a1cfc968bull, 1024, 1035, 264, 0, 0},
    {"star n=9", "raw", kDphyp, 0x402ba92a1cfc968bull, 1024, 1035, 264, 0, 0},
    {"cycle n=9", "facade", kEaPrune, 0x403ffab5a18c251bull, 85, 172, 32, 12, 5},
    {"cycle n=9", "raw", kEaPrune, 0x403ffab5a18c251bull, 85, 4278, 559, 1640, 295},
    {"cycle n=9", "raw x1.0", kEaPrune, 0x403ffab5a18c251bull, 85, 96, 19, 0, 0},
    {"cycle n=9", "raw x1.1", kEaPrune, 0x403ffab5a18c251bull, 85, 116, 23, 3, 0},
    {"cycle n=9", "facade", kDphyp, 0x403ffab5a18c251bull, 85, 96, 38, 0, 0},
    {"cycle n=9", "raw", kDphyp, 0x403ffab5a18c251bull, 85, 96, 38, 0, 0},
    {"random n=10", "facade", kEaPrune, 0x405a1e5e9ec1dee0ull, 287, 1743, 167, 327, 115},
    {"random n=10", "raw", kEaPrune, 0x405a1e5e9ec1dee0ull, 287, 24286, 1355, 8937, 1415},
    {"random n=10", "raw x1.0", kEaPrune, 0x405a1e5e9ec1dee0ull, 287, 382, 42, 23, 10},
    {"random n=10", "raw x1.1", kEaPrune, 0x405a1e5e9ec1dee0ull, 287, 1178, 113, 183, 55},
    {"random n=10", "facade", kDphyp, 0x407162f1e890c680ull, 287, 299, 80, 0, 0},
    {"random n=10", "raw", kDphyp, 0x407162f1e890c680ull, 287, 299, 80, 0, 0},
    {"outer n=10", "facade", kEaPrune, 0x41062d175db23e70ull, 287, 443, 61, 60, 27},
    {"outer n=10", "raw", kEaPrune, 0x41062d175db23e70ull, 287, 471, 65, 125, 28},
    {"outer n=10", "raw x1.0", kEaPrune, 0x41062d175db23e70ull, 287, 443, 61, 60, 27},
    {"outer n=10", "raw x1.1", kEaPrune, 0x41062d175db23e70ull, 287, 471, 65, 92, 27},
    {"outer n=10", "facade", kDphyp, 0x4122dcde407fdd86ull, 287, 29, 23, 0, 0},
    {"outer n=10", "raw", kDphyp, 0x4122dcde407fdd86ull, 287, 29, 23, 0, 0},
    {"chain n=10", "facade", kEaPrune, 0x404a5dadeb7ba4b5ull, 165, 391, 63, 39, 9},
    {"chain n=10", "raw", kEaPrune, 0x404a5dadeb7ba4b5ull, 165, 20404, 1104, 6577, 425},
    {"chain n=10", "raw x1.0", kEaPrune, 0x404a5dadeb7ba4b5ull, 165, 157, 29, 2, 1},
    {"chain n=10", "raw x1.1", kEaPrune, 0x404a5dadeb7ba4b5ull, 165, 226, 43, 4, 2},
    {"chain n=10", "facade", kDphyp, 0x404a5dadeb7ba4b5ull, 165, 177, 55, 0, 0},
    {"chain n=10", "raw", kDphyp, 0x404a5dadeb7ba4b5ull, 165, 177, 55, 0, 0},
    {"star n=10", "facade", kEaPrune, 0x4036eebcbb2514d3ull, 2304, 339, 27, 6, 1},
    {"star n=10", "raw", kEaPrune, 0x4036eebcbb2514d3ull, 2304, 276706, 41245, 114306, 29100},
    {"star n=10", "raw x1.0", kEaPrune, 0x4036eebcbb2514d3ull, 2304, 339, 27, 6, 1},
    {"star n=10", "raw x1.1", kEaPrune, 0x4036eebcbb2514d3ull, 2304, 6123, 550, 1297, 427},
    {"star n=10", "facade", kDphyp, 0x4036eebcbb2514d3ull, 2304, 2316, 521, 0, 0},
    {"star n=10", "raw", kDphyp, 0x4036eebcbb2514d3ull, 2304, 2316, 521, 0, 0},
    {"cycle n=10", "facade", kEaPrune, 0x404a5a9c4b7e41eeull, 121, 251, 45, 26, 5},
    {"cycle n=10", "raw", kEaPrune, 0x404a5a9c4b7e41eeull, 121, 8876, 863, 4622, 325},
    {"cycle n=10", "raw x1.0", kEaPrune, 0x404a5a9c4b7e41eeull, 121, 130, 26, 1, 0},
    {"cycle n=10", "raw x1.1", kEaPrune, 0x404a5a9c4b7e41eeull, 121, 174, 36, 3, 2},
    {"cycle n=10", "facade", kDphyp, 0x404a5a9c4b7e41eeull, 121, 133, 47, 0, 0},
    {"cycle n=10", "raw", kDphyp, 0x404a5a9c4b7e41eeull, 121, 133, 47, 0, 0},
    {"random n=11", "facade", kEaPrune, 0x40a18d73286ed007ull, 1020, 81, 31, 6, 7},
    {"random n=11", "raw", kEaPrune, 0x40a18d73286ed007ull, 1020, 285, 59, 39, 25},
    {"random n=11", "raw x1.0", kEaPrune, 0x40a18d73286ed007ull, 1020, 81, 31, 6, 7},
    {"random n=11", "raw x1.1", kEaPrune, 0x40a18d73286ed007ull, 1020, 130, 36, 6, 9},
    {"random n=11", "facade", kDphyp, 0x40a59eccc861372bull, 1020, 50, 32, 0, 0},
    {"random n=11", "raw", kDphyp, 0x40a59eccc861372bull, 1020, 50, 32, 0, 0},
    {"outer n=11", "facade", kEaPrune, 0x41150a55c5a6f80dull, 1020, 65, 30, 11, 6},
    {"outer n=11", "raw", kEaPrune, 0x41150a55c5a6f80dull, 1020, 65, 30, 11, 6},
    {"outer n=11", "raw x1.0", kEaPrune, 0x41150a55c5a6f80dull, 1020, 65, 30, 11, 6},
    {"outer n=11", "raw x1.1", kEaPrune, 0x41150a55c5a6f80dull, 1020, 65, 30, 11, 6},
    {"outer n=11", "facade", kDphyp, 0x41150bcc92b490b1ull, 1020, 36, 27, 0, 0},
    {"outer n=11", "raw", kDphyp, 0x41150bcc92b490b1ull, 1020, 36, 27, 0, 0},
    {"chain n=11", "facade", kEaPrune, 0x40429f9e876edb7dull, 220, 722, 90, 100, 7},
    {"chain n=11", "raw", kEaPrune, 0x40429f9e876edb7dull, 220, 103608, 3175, 30854, 3188},
    {"chain n=11", "raw x1.0", kEaPrune, 0x40429f9e876edb7dull, 220, 251, 33, 14, 0},
    {"chain n=11", "raw x1.1", kEaPrune, 0x40429f9e876edb7dull, 220, 331, 44, 28, 1},
    {"chain n=11", "facade", kDphyp, 0x40429f9e876edb7dull, 220, 233, 66, 0, 0},
    {"chain n=11", "raw", kDphyp, 0x40429f9e876edb7dull, 220, 233, 66, 0, 0},
    {"star n=11", "facade", kEaPrune, 0x402ee6f7b8e099b2ull, 5120, 492, 30, 5, 3},
    {"star n=11", "facade", kDphyp, 0x402ee6f7b8e099b2ull, 5120, 5133, 1034, 0, 0},
    {"cycle n=11", "facade", kEaPrune, 0x4042a10ad9cb2866ull, 166, 582, 82, 80, 7},
    {"cycle n=11", "raw", kEaPrune, 0x4042a10ad9cb2866ull, 166, 44352, 2643, 20593, 1961},
    {"cycle n=11", "raw x1.0", kEaPrune, 0x4042a10ad9cb2866ull, 166, 215, 33, 8, 0},
    {"cycle n=11", "raw x1.1", kEaPrune, 0x4042a10ad9cb2866ull, 166, 265, 40, 19, 1},
    {"cycle n=11", "facade", kDphyp, 0x4042a10ad9cb2866ull, 166, 179, 57, 0, 0},
    {"cycle n=11", "raw", kDphyp, 0x4042a10ad9cb2866ull, 166, 179, 57, 0, 0},
    {"random n=12", "facade", kEaPrune, 0x40b9b132870374ddull, 1119, 1588, 157, 190, 85},
    {"random n=12", "raw", kEaPrune, 0x40b9b132870374ddull, 1119, 2478, 201, 377, 118},
    {"random n=12", "raw x1.0", kEaPrune, 0x40b9b132870374ddull, 1119, 338, 94, 77, 19},
    {"random n=12", "raw x1.1", kEaPrune, 0x40b9b132870374ddull, 1119, 1539, 157, 185, 85},
    {"random n=12", "facade", kDphyp, 0x40bfa9e6156d31ddull, 1119, 102, 47, 0, 0},
    {"random n=12", "raw", kDphyp, 0x40bfa9e6156d31ddull, 1119, 102, 47, 0, 0},
    {"outer n=12", "facade", kEaPrune, 0x40f2e596d52b8cf0ull, 1118, 83, 35, 9, 4},
    {"outer n=12", "raw", kEaPrune, 0x40f2e596d52b8cf0ull, 1118, 84, 35, 16, 5},
    {"outer n=12", "raw x1.0", kEaPrune, 0x40f2e596d52b8cf0ull, 1118, 83, 35, 9, 4},
    {"outer n=12", "raw x1.1", kEaPrune, 0x40f2e596d52b8cf0ull, 1118, 83, 35, 12, 5},
    {"outer n=12", "facade", kDphyp, 0x40f79f79f90ef93eull, 1118, 31, 26, 0, 0},
    {"outer n=12", "raw", kDphyp, 0x40f79f79f90ef93eull, 1118, 31, 26, 0, 0},
    {"chain n=12", "facade", kEaPrune, 0x403a712672c22f25ull, 286, 2220, 225, 444, 82},
    {"chain n=12", "raw", kEaPrune, 0x403a712672c22f25ull, 286, 463517, 8027, 131624, 7782},
    {"chain n=12", "raw x1.0", kEaPrune, 0x403a712672c22f25ull, 286, 200, 28, 8, 0},
    {"chain n=12", "raw x1.1", kEaPrune, 0x403a712672c22f25ull, 286, 407, 54, 60, 0},
    {"chain n=12", "facade", kDphyp, 0x403a712672c22f25ull, 286, 300, 78, 0, 0},
    {"chain n=12", "raw", kDphyp, 0x403a712672c22f25ull, 286, 300, 78, 0, 0},
    {"star n=12", "facade", kEaPrune, 0x40399a94ad9339c4ull, 11264, 499, 31, 1, 2},
    {"star n=12", "facade", kDphyp, 0x40399a94ad9339c4ull, 11264, 11278, 2059, 0, 0},
    {"cycle n=12", "facade", kEaPrune, 0x403a7272d47edc85ull, 221, 1577, 178, 330, 64},
    {"cycle n=12", "raw", kEaPrune, 0x403a7272d47edc85ull, 221, 143598, 5450, 80733, 4850},
    {"cycle n=12", "raw x1.0", kEaPrune, 0x403a7272d47edc85ull, 221, 185, 27, 6, 0},
    {"cycle n=12", "raw x1.1", kEaPrune, 0x403a7272d47edc85ull, 221, 344, 49, 55, 0},
    {"cycle n=12", "facade", kDphyp, 0x403a7272d47edc85ull, 221, 235, 68, 0, 0},
    {"cycle n=12", "raw", kDphyp, 0x403a7272d47edc85ull, 221, 235, 68, 0, 0},
    {"tpch ex", "facade", kEaPrune, 0x4062c00000000000ull, 10, 41, 9, 0, 0},
    {"tpch ex", "raw", kEaPrune, 0x4062c00000000000ull, 10, 41, 9, 0, 0},
    {"tpch ex", "raw x1.0", kEaPrune, 0x4062c00000000000ull, 10, 13, 7, 0, 0},
    {"tpch ex", "raw x1.1", kEaPrune, 0x4062c00000000000ull, 10, 13, 7, 0, 0},
    {"tpch ex", "facade", kEaAll, 0x4062c00000000000ull, 10, 41, 9, 0, 0},
    {"tpch ex", "raw", kEaAll, 0x4062c00000000000ull, 10, 41, 9, 0, 0},
    {"tpch ex", "facade", kDphyp, 0x418cafd388000000ull, 10, 9, 7, 0, 0},
    {"tpch ex", "raw", kDphyp, 0x418cafd388000000ull, 10, 9, 7, 0, 0},
    {"tpch q1", "facade", kEaPrune, 0x4018000000000000ull, 0, 3, 1, 0, 0},
    {"tpch q1", "raw", kEaPrune, 0x4018000000000000ull, 0, 3, 1, 0, 0},
    {"tpch q1", "raw x1.0", kEaPrune, 0x4018000000000000ull, 0, 3, 1, 0, 0},
    {"tpch q1", "raw x1.1", kEaPrune, 0x4018000000000000ull, 0, 3, 1, 0, 0},
    {"tpch q1", "facade", kEaAll, 0x4018000000000000ull, 0, 3, 1, 0, 0},
    {"tpch q1", "raw", kEaAll, 0x4018000000000000ull, 0, 3, 1, 0, 0},
    {"tpch q1", "facade", kDphyp, 0x4018000000000000ull, 0, 3, 1, 0, 0},
    {"tpch q1", "raw", kDphyp, 0x4018000000000000ull, 0, 3, 1, 0, 0},
    {"tpch q3", "facade", kEaPrune, 0x41512a8800000000ull, 4, 15, 6, 0, 1},
    {"tpch q3", "raw", kEaPrune, 0x41512a8800000000ull, 4, 15, 6, 0, 1},
    {"tpch q3", "raw x1.0", kEaPrune, 0x41512a8800000000ull, 4, 15, 6, 0, 0},
    {"tpch q3", "raw x1.1", kEaPrune, 0x41512a8800000000ull, 4, 15, 6, 0, 0},
    {"tpch q3", "facade", kEaAll, 0x41512a8800000000ull, 4, 22, 7, 0, 0},
    {"tpch q3", "raw", kEaAll, 0x41512a8800000000ull, 4, 22, 7, 0, 0},
    {"tpch q3", "facade", kDphyp, 0x41612b1fe0000000ull, 4, 9, 6, 0, 0},
    {"tpch q3", "raw", kDphyp, 0x41612b1fe0000000ull, 4, 9, 6, 0, 0},
    {"tpch q5", "facade", kEaPrune, 0x415d87ece6666666ull, 26, 93, 21, 2, 4},
    {"tpch q5", "raw", kEaPrune, 0x415d87ece6666666ull, 26, 185, 34, 21, 22},
    {"tpch q5", "raw x1.0", kEaPrune, 0x415d87ece6666666ull, 26, 76, 19, 0, 4},
    {"tpch q5", "raw x1.1", kEaPrune, 0x415d87ece6666666ull, 26, 98, 23, 3, 6},
    {"tpch q5", "facade", kEaAll, 0x415d87ece6666666ull, 26, 134, 30, 0, 0},
    {"tpch q5", "raw", kEaAll, 0x415d87ece6666666ull, 26, 1145, 181, 0, 0},
    {"tpch q5", "facade", kDphyp, 0x415e1a5c66666666ull, 26, 34, 19, 0, 0},
    {"tpch q5", "raw", kDphyp, 0x415e1a5c66666666ull, 26, 34, 19, 0, 0},
    {"tpch q10", "facade", kEaPrune, 0x41492d5000000000ull, 10, 39, 11, 2, 2},
    {"tpch q10", "raw", kEaPrune, 0x41492d5000000000ull, 10, 39, 11, 2, 2},
    {"tpch q10", "raw x1.0", kEaPrune, 0x41492d5000000000ull, 10, 32, 10, 0, 1},
    {"tpch q10", "raw x1.1", kEaPrune, 0x41492d5000000000ull, 10, 32, 10, 0, 1},
    {"tpch q10", "facade", kEaAll, 0x41492d5000000000ull, 10, 78, 17, 0, 0},
    {"tpch q10", "raw", kEaAll, 0x41492d5000000000ull, 10, 78, 17, 0, 0},
    {"tpch q10", "facade", kDphyp, 0x4165beffe0000000ull, 10, 16, 10, 0, 0},
    {"tpch q10", "raw", kDphyp, 0x4165beffe0000000ull, 10, 16, 10, 0, 0},
    {"tpch q18", "facade", kEaPrune, 0x4156e36000000000ull, 12, 29, 11, 4, 2},
    {"tpch q18", "raw", kEaPrune, 0x4156e36000000000ull, 12, 29, 11, 4, 2},
    {"tpch q18", "raw x1.0", kEaPrune, 0x4156e36000000000ull, 12, 29, 11, 3, 0},
    {"tpch q18", "raw x1.1", kEaPrune, 0x4156e36000000000ull, 12, 29, 11, 3, 1},
    {"tpch q18", "facade", kEaAll, 0x4156e36000000000ull, 12, 80, 21, 0, 0},
    {"tpch q18", "raw", kEaAll, 0x4156e36000000000ull, 12, 80, 21, 0, 0},
    {"tpch q18", "facade", kDphyp, 0x416c9d67c0000000ull, 12, 18, 11, 0, 0},
    {"tpch q18", "raw", kDphyp, 0x416c9d67c0000000ull, 12, 18, 11, 0, 0},
};
// clang-format on

const char* AlgorithmToken(Algorithm a) {
  switch (a) {
    case Algorithm::kEaPrune: return "kEaPrune";
    case Algorithm::kEaAll: return "kEaAll";
    default: return "kDphyp";
  }
}

std::string FormatRow(const std::string& query, const char* path,
                      Algorithm algorithm, const OptimizeResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "    {\"%s\", \"%s\", %s, 0x%016" PRIx64 "ull, %" PRIu64
                ", %" PRIu64 ", %zu, %" PRIu64 ", %" PRIu64 "},",
                query.c_str(), path, AlgorithmToken(algorithm),
                std::bit_cast<uint64_t>(r.plan->cost), r.stats.ccp_count,
                r.stats.plans_built, r.stats.table_plans,
                r.stats.pruned_candidates, r.stats.pruned_existing);
  return buf;
}

const Pin* FindPin(const std::string& query, const char* path,
                   Algorithm algorithm) {
  for (const Pin& pin : kPins) {
    if (query == pin.query && std::string(path) == pin.path &&
        algorithm == pin.algorithm) {
      return &pin;
    }
  }
  return nullptr;
}

TEST(ExactDpPin, CostBitsAndCountersMatchRecordedValues) {
  size_t checked = 0;
  for (const PinQuery& c : PinCorpus()) {
    for (Algorithm algorithm : {kEaPrune, kEaAll, kDphyp}) {
      // EA-All keeps every tree: past 7 relations a run takes seconds.
      if (algorithm == kEaAll && c.query.NumRelations() > 7) continue;
      OptimizerOptions options;
      options.algorithm = algorithm;
      double optimum = 0;  // the raw unbounded run's cost
      for (const char* path : {"facade", "raw", "raw x1.0", "raw x1.1"}) {
        const std::string p = path;
        if (p != "facade" && !c.raw) continue;
        if ((p == "raw x1.0" || p == "raw x1.1") && algorithm != kEaPrune) {
          continue;
        }
        OptimizeResult r =
            p == "facade" ? OptimizeAdaptiveUncached(c.query, options)
            : p == "raw"  ? Optimize(c.query, options)
            : Optimize(c.query, options,
                       optimum * (p == "raw x1.0" ? 1.0 : 1.1));
        ASSERT_NE(r.plan, nullptr) << c.label << " " << path;
        if (p == "raw") optimum = r.plan->cost;
        std::string row = FormatRow(c.label, path, algorithm, r);
        const Pin* pin = FindPin(c.label, path, algorithm);
        if (pin == nullptr) {
          ADD_FAILURE() << "no recorded row; now:\n" << row;
          continue;
        }
        ++checked;
        bool same = std::bit_cast<uint64_t>(r.plan->cost) == pin->cost_bits &&
                    r.stats.ccp_count == pin->ccp_count &&
                    r.stats.plans_built == pin->plans_built &&
                    r.stats.table_plans == pin->table_plans &&
                    r.stats.pruned_candidates == pin->pruned_candidates &&
                    r.stats.pruned_existing == pin->pruned_existing;
        EXPECT_TRUE(same) << "row moved; now:\n" << row;
      }
    }
  }
  EXPECT_EQ(checked, sizeof(kPins) / sizeof(kPins[0]));
}

}  // namespace
}  // namespace eadp
