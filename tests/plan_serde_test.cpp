// Byte-level pins for the binary plan encoding (plangen/plan_serde.h):
//
//   * round trips — encode→decode→re-encode byte-identity, recursive
//     bitwise equality of every node field (cost/cardinality doubles by
//     bit pattern, keys by content, payloads by value), explain-JSON
//     string equality and validator-cleanness, across the full small
//     differential corpus × all strategies, the TPC-H seeds, n >= 20
//     GOO/IDP plans, FD-tracking plans and parallel-DP (multi-arena)
//     plans;
//   * adversarial decodes — every single-byte corruption of a blob is
//     rejected (CRC or structure), every truncated prefix is rejected,
//     version skew refuses cleanly, random garbage never exhibits UB
//     (the sweeps run unchanged under the ASan/UBSan CI legs);
//   * binio primitives — varint/zigzag round trips and the CRC-32 check
//     vector.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/binio.h"
#include "plangen/plan_explain.h"
#include "plangen/plan_serde.h"
#include "plangen/plan_validator.h"
#include "plangen/plangen.h"
#include "plangen/session.h"
#include "queries/query_generator.h"
#include "queries/tpch.h"
#include "tests/test_util.h"

namespace eadp {
namespace {

// ---------------------------------------------------------------------------
// Corpus (mirrors large_query_test's differential corpus).
// ---------------------------------------------------------------------------

std::vector<Query> SmallCorpus() {
  std::vector<Query> corpus;
  for (QueryTopology t :
       {QueryTopology::kChain, QueryTopology::kStar, QueryTopology::kCycle,
        QueryTopology::kClique}) {
    for (int n = 2; n <= 9; ++n) {
      for (uint64_t seed = 0; seed < 3; ++seed) {
        GeneratorOptions gen;
        gen.topology = t;
        gen.num_relations = n;
        corpus.push_back(GenerateRandomQuery(gen, seed));
      }
    }
  }
  for (uint64_t seed = 0; seed < 10; ++seed) {
    GeneratorOptions gen;
    gen.num_relations = 3 + static_cast<int>(seed % 4);
    corpus.push_back(GenerateRandomQuery(gen, seed));
    gen.num_relations = 5 + static_cast<int>(seed % 4);
    gen.inner_joins_only = true;
    corpus.push_back(GenerateRandomQuery(gen, seed + 500));
  }
  return corpus;
}

std::vector<Query> TpchSeeds() {
  std::vector<Query> seeds;
  seeds.push_back(MakeTpchEx());
  seeds.push_back(MakeTpchQ1());
  seeds.push_back(MakeTpchQ3());
  seeds.push_back(MakeTpchQ5());
  seeds.push_back(MakeTpchQ10());
  seeds.push_back(MakeTpchQ18());
  return seeds;
}

// ---------------------------------------------------------------------------
// Recursive bitwise plan equality.
// ---------------------------------------------------------------------------

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Field-by-field equality of two plan trees: doubles by bit pattern,
/// interned payloads by value. Reports the first divergence.
void ExpectTreesEqual(PlanPtr a, PlanPtr b, const std::string& label) {
  ASSERT_EQ(a == nullptr, b == nullptr) << label;
  if (a == nullptr) return;
  ASSERT_EQ(a->op, b->op) << label;
  EXPECT_EQ(a->rels, b->rels) << label;
  EXPECT_EQ(a->relation, b->relation) << label;
  EXPECT_TRUE(BitEqual(a->cardinality, b->cardinality)) << label;
  EXPECT_TRUE(BitEqual(a->raw_cardinality, b->raw_cardinality)) << label;
  EXPECT_TRUE(BitEqual(a->pregroup_cardinality, b->pregroup_cardinality))
      << label;
  EXPECT_TRUE(BitEqual(a->cost, b->cost)) << label;
  EXPECT_EQ(a->duplicate_free, b->duplicate_free) << label;
  EXPECT_EQ(a->group_by, b->group_by) << label;
  EXPECT_TRUE(a->keys() == b->keys()) << label;

  // Crossing payload.
  EXPECT_EQ(a->op_indices(), b->op_indices()) << label;
  const auto& ae = a->predicate().equalities();
  const auto& be = b->predicate().equalities();
  ASSERT_EQ(ae.size(), be.size()) << label;
  for (size_t i = 0; i < ae.size(); ++i) {
    EXPECT_EQ(ae[i].left_attr, be[i].left_attr) << label;
    EXPECT_EQ(ae[i].right_attr, be[i].right_attr) << label;
  }
  if (a->crossing != nullptr || b->crossing != nullptr) {
    ASSERT_TRUE(a->crossing != nullptr && b->crossing != nullptr) << label;
    EXPECT_TRUE(BitEqual(a->crossing->selectivity, b->crossing->selectivity))
        << label;
  }
  const auto& aga = a->groupjoin_aggs();
  const auto& bga = b->groupjoin_aggs();
  ASSERT_EQ(aga.size(), bga.size()) << label;
  for (size_t i = 0; i < aga.size(); ++i) {
    EXPECT_EQ(aga[i].output, bga[i].output) << label;
    EXPECT_EQ(aga[i].kind, bga[i].kind) << label;
    EXPECT_EQ(aga[i].arg, bga[i].arg) << label;
    EXPECT_EQ(aga[i].distinct, bga[i].distinct) << label;
  }

  // Outer-join defaults.
  auto expect_defaults_equal = [&](const std::vector<SymbolicDefault>& x,
                                   const std::vector<SymbolicDefault>& y) {
    ASSERT_EQ(x.size(), y.size()) << label;
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].column, y[i].column) << label;
      EXPECT_EQ(x[i].one, y[i].one) << label;
    }
  };
  expect_defaults_equal(a->left_defaults(), b->left_defaults());
  expect_defaults_equal(a->right_defaults(), b->right_defaults());

  // Grouping aggregates.
  const auto& agg = a->group_aggs();
  const auto& bgg = b->group_aggs();
  ASSERT_EQ(agg.size(), bgg.size()) << label;
  for (size_t i = 0; i < agg.size(); ++i) {
    EXPECT_EQ(agg[i].output, bgg[i].output) << label;
    EXPECT_EQ(agg[i].kind, bgg[i].kind) << label;
    EXPECT_EQ(agg[i].arg, bgg[i].arg) << label;
    EXPECT_EQ(agg[i].distinct, bgg[i].distinct) << label;
    EXPECT_EQ(agg[i].multipliers, bgg[i].multipliers) << label;
  }

  // Final map.
  const auto& afm = a->final_map();
  const auto& bfm = b->final_map();
  ASSERT_EQ(afm.size(), bfm.size()) << label;
  for (size_t i = 0; i < afm.size(); ++i) {
    EXPECT_EQ(afm[i].output, bfm[i].output) << label;
    EXPECT_EQ(afm[i].kind, bfm[i].kind) << label;
    EXPECT_EQ(afm[i].arg, bfm[i].arg) << label;
    EXPECT_EQ(afm[i].arg2, bfm[i].arg2) << label;
    EXPECT_EQ(afm[i].counts, bfm[i].counts) << label;
    EXPECT_EQ(afm[i].const_value, bfm[i].const_value) << label;
  }
  EXPECT_EQ(a->output_columns(), b->output_columns()) << label;

  // FDs and aggregation state.
  const auto& afd = a->fds().fds();
  const auto& bfd = b->fds().fds();
  ASSERT_EQ(afd.size(), bfd.size()) << label;
  for (size_t i = 0; i < afd.size(); ++i) {
    EXPECT_TRUE(afd[i] == bfd[i]) << label;
  }
  const PlanAggState& ast = a->agg_state();
  const PlanAggState& bst = b->agg_state();
  ASSERT_EQ(ast.slots.size(), bst.slots.size()) << label;
  for (size_t i = 0; i < ast.slots.size(); ++i) {
    EXPECT_EQ(ast.slots[i].query_index, bst.slots[i].query_index) << label;
    EXPECT_EQ(ast.slots[i].partialized, bst.slots[i].partialized) << label;
    EXPECT_EQ(ast.slots[i].partial_column, bst.slots[i].partial_column)
        << label;
    EXPECT_EQ(ast.slots[i].home_count, bst.slots[i].home_count) << label;
  }
  ASSERT_EQ(ast.counts.size(), bst.counts.size()) << label;
  for (size_t i = 0; i < ast.counts.size(); ++i) {
    EXPECT_EQ(ast.counts[i].column, bst.counts[i].column) << label;
  }

  ExpectTreesEqual(a->left, b->left, label);
  ExpectTreesEqual(a->right, b->right, label);
}

/// The full round-trip contract for one optimization result.
void ExpectRoundTrips(const OptimizeResult& fresh, const Query& query,
                      const std::string& label) {
  std::string blob = EncodePlan(fresh);
  OptimizeResult revived;
  std::string error;
  ASSERT_TRUE(DecodePlan(blob, &revived, &error)) << label << ": " << error;
  ASSERT_EQ(revived.plan == nullptr, fresh.plan == nullptr) << label;

  // Explain-bit-identity: stats and the plan rendering, as one string.
  EXPECT_EQ(ExplainToJson(revived, query.catalog()),
            ExplainToJson(fresh, query.catalog()))
      << label;

  if (fresh.plan != nullptr) {
    ExpectTreesEqual(fresh.plan, revived.plan, label);
    std::vector<std::string> violations = ValidatePlan(revived.plan, query);
    EXPECT_TRUE(violations.empty())
        << label << ": revived plan has " << violations.size()
        << " violations, first: " << violations.front();
  }

  // Determinism: re-encoding the revived result reproduces the blob.
  EXPECT_EQ(EncodePlan(revived), blob) << label << ": re-encode diverged";
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(PlanSerdeRoundTrip, CorpusAllStrategies) {
  std::vector<Query> corpus = SmallCorpus();
  int checked = 0;
  for (size_t qi = 0; qi < corpus.size(); ++qi) {
    const Query& q = corpus[qi];
    std::vector<Algorithm> algorithms = {Algorithm::kDphyp, Algorithm::kEaPrune,
                                         Algorithm::kH1, Algorithm::kH2,
                                         Algorithm::kGoo, Algorithm::kIdp};
    // kEaAll keeps every join tree per class — exponential, so cap it.
    if (q.NumRelations() <= 6) algorithms.push_back(Algorithm::kEaAll);
    for (Algorithm a : algorithms) {
      OptimizerOptions opts;
      opts.algorithm = a;
      OptimizeResult r = Optimize(q, opts);
      if (r.plan == nullptr) continue;  // kIdp may legitimately bail
      ExpectRoundTrips(r, q,
                       "corpus[" + std::to_string(qi) + "] " +
                           AlgorithmName(a));
      ++checked;
    }
    // The adaptive facade (production entry point).
    OptimizerOptions adaptive;
    OptimizeResult r = PlannerSession(adaptive).Optimize(q);
    ASSERT_NE(r.plan, nullptr) << "corpus[" << qi << "]";
    ExpectRoundTrips(r, q, "corpus[" + std::to_string(qi) + "] adaptive");
    ++checked;
  }
  EXPECT_GT(checked, 500);
}

TEST(PlanSerdeRoundTrip, TpchSeeds) {
  std::vector<Query> seeds = TpchSeeds();
  for (size_t i = 0; i < seeds.size(); ++i) {
    for (Algorithm a : {Algorithm::kEaPrune, Algorithm::kDphyp}) {
      OptimizerOptions opts;
      opts.algorithm = a;
      OptimizeResult r = Optimize(seeds[i], opts);
      ASSERT_NE(r.plan, nullptr) << "tpch[" << i << "]";
      ExpectRoundTrips(r, seeds[i],
                       "tpch[" + std::to_string(i) + "] " + AlgorithmName(a));
    }
    OptimizerOptions adaptive;
    OptimizeResult r = PlannerSession(adaptive).Optimize(seeds[i]);
    ASSERT_NE(r.plan, nullptr);
    ExpectRoundTrips(r, seeds[i], "tpch[" + std::to_string(i) + "] adaptive");
  }
}

TEST(PlanSerdeRoundTrip, LargeQueryStrategies) {
  for (int n : {20, 30}) {
    for (QueryTopology t : {QueryTopology::kChain, QueryTopology::kStar}) {
      GeneratorOptions gen;
      gen.topology = t;
      gen.num_relations = n;
      Query q = GenerateRandomQuery(gen, /*seed=*/1);
      for (Algorithm a : {Algorithm::kGoo, Algorithm::kIdp}) {
        OptimizerOptions opts;
        opts.algorithm = a;
        OptimizeResult r = Optimize(q, opts);
        if (r.plan == nullptr) continue;
        ExpectRoundTrips(r, q,
                         std::string("large n=") + std::to_string(n) + " " +
                             AlgorithmName(a));
      }
      OptimizerOptions adaptive;
      OptimizeResult r = PlannerSession(adaptive).Optimize(q);
      ASSERT_NE(r.plan, nullptr);
      ExpectRoundTrips(r, q, "large n=" + std::to_string(n) + " adaptive");
    }
  }
}

TEST(PlanSerdeRoundTrip, FdTrackingPlans) {
  // full_fd_dominance forces FD sets onto every node — the fds_ payload
  // table must round-trip too.
  GeneratorOptions gen;
  gen.topology = QueryTopology::kChain;
  gen.num_relations = 6;
  Query q = GenerateRandomQuery(gen, /*seed=*/2);
  OptimizerOptions opts;
  opts.full_fd_dominance = true;
  OptimizeResult r = Optimize(q, opts);
  ASSERT_NE(r.plan, nullptr);
  ExpectRoundTrips(r, q, "fd-tracking");
}

TEST(PlanSerdeRoundTrip, ParallelDpMultiArenaPlans) {
  // dp_threads > 1 builds nodes in per-worker arenas (adopted as
  // siblings): the encoder must handle payload pointers from any arena,
  // including content-equal KeySets interned separately per worker.
  GeneratorOptions gen;
  gen.topology = QueryTopology::kStar;
  gen.num_relations = 10;
  Query q = GenerateRandomQuery(gen, /*seed=*/3);
  OptimizerOptions opts;
  opts.dp_threads = 4;
  OptimizeResult r = Optimize(q, opts);
  ASSERT_NE(r.plan, nullptr);
  ExpectRoundTrips(r, q, "parallel-dp");
}

TEST(PlanSerdeRoundTrip, OuterJoinAndGroupJoinPlans) {
  for (OpKind kind : {OpKind::kLeftOuter, OpKind::kFullOuter,
                      OpKind::kGroupJoin, OpKind::kLeftSemi}) {
    TwoRelSpec spec;
    spec.kind = kind;
    Query q = MakeTwoRelQuery(spec);
    OptimizerOptions opts;
    OptimizeResult r = Optimize(q, opts);
    ASSERT_NE(r.plan, nullptr) << OpKindName(kind);
    ExpectRoundTrips(r, q, OpKindName(kind));
  }
}

TEST(PlanSerdeRoundTrip, NullPlanResult) {
  // Unsatisfiable results (null plan) are legal cache values: the stats
  // block still round-trips exactly.
  OptimizeResult r;
  r.stats.ccp_count = 17;
  r.stats.optimize_ms = 1.25;
  r.stats.algorithm = Algorithm::kGoo;
  std::string blob = EncodePlan(r);
  OptimizeResult revived;
  std::string error;
  ASSERT_TRUE(DecodePlan(blob, &revived, &error)) << error;
  EXPECT_EQ(revived.plan, nullptr);
  EXPECT_EQ(revived.stats.ccp_count, 17u);
  EXPECT_EQ(revived.stats.algorithm, Algorithm::kGoo);
  EXPECT_EQ(OptimizeStatsToJson(revived.stats), OptimizeStatsToJson(r.stats));
  EXPECT_EQ(EncodePlan(revived), blob);
}

TEST(PlanSerdeRoundTrip, InternedPayloadsStayShared) {
  // The dedup tables must preserve object sharing: equal keys_ pointers
  // in the original map to equal pointers in the revived plan (decode
  // re-interns), so blob size stays linear in *distinct* payloads.
  TwoRelSpec spec;
  Query q = MakeTwoRelQuery(spec);
  OptimizeResult r = Optimize(q, OptimizerOptions{});
  ASSERT_NE(r.plan, nullptr);
  std::string blob = EncodePlan(r);
  OptimizeResult revived;
  ASSERT_TRUE(DecodePlan(blob, &revived));

  auto count_distinct_keys = [](PlanPtr root) {
    std::vector<const KeySet*> seen;
    auto visit = [&](auto&& self, PlanPtr n) -> void {
      if (n == nullptr) return;
      if (n->keys_ != nullptr &&
          std::find(seen.begin(), seen.end(), n->keys_) == seen.end()) {
        seen.push_back(n->keys_);
      }
      self(self, n->left);
      self(self, n->right);
    };
    visit(visit, root);
    return seen.size();
  };
  EXPECT_EQ(count_distinct_keys(revived.plan), count_distinct_keys(r.plan));
}

// ---------------------------------------------------------------------------
// Adversarial decodes
// ---------------------------------------------------------------------------

std::string SmallBlob() {
  TwoRelSpec spec;
  Query q = MakeTwoRelQuery(spec);
  OptimizeResult r = Optimize(q, OptimizerOptions{});
  EXPECT_NE(r.plan, nullptr);
  return EncodePlan(r);
}

TEST(PlanSerdeAdversarial, EveryByteFlipRejected) {
  std::string blob = SmallBlob();
  OptimizeResult out;
  for (size_t i = 0; i < blob.size(); ++i) {
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xff}}) {
      std::string corrupt = blob;
      corrupt[i] = static_cast<char>(corrupt[i] ^ mask);
      // Header flips hit magic/version/length checks; the crc word and
      // every payload byte hit the checksum (CRC-32 detects any burst
      // confined to 32 bits, so a single-byte flip can never pass).
      EXPECT_FALSE(DecodePlan(corrupt, &out))
          << "byte " << i << " mask " << static_cast<int>(mask)
          << " accepted";
    }
  }
}

TEST(PlanSerdeAdversarial, EveryTruncationRejected) {
  std::string blob = SmallBlob();
  OptimizeResult out;
  for (size_t len = 0; len < blob.size(); ++len) {
    std::string error;
    EXPECT_FALSE(DecodePlan(std::string_view(blob.data(), len), &out, &error))
        << "prefix of " << len << " bytes accepted";
  }
  // Extension is rejected too (the header length field pins the size).
  EXPECT_FALSE(DecodePlan(blob + '\0', &out));
}

TEST(PlanSerdeAdversarial, VersionSkewRefusedCleanly) {
  std::string blob = SmallBlob();
  // Bump the version *and* nothing else: the decoder must identify the
  // skew as such — before the checksum — rather than report corruption.
  uint32_t skew = kPlanBlobVersion + 1;
  std::string future = blob;
  std::memcpy(future.data() + 4, &skew, 4);
  OptimizeResult out;
  std::string error;
  EXPECT_FALSE(DecodePlan(future, &out, &error));
  EXPECT_EQ(error, "unsupported format version");
}

TEST(PlanSerdeAdversarial, TrailingPayloadBytesRejected) {
  // Corruption *below* the checksum: append a byte inside the payload and
  // re-seal magic/version/crc/len — the structural layer must still
  // reject (every accepted blob is fully consumed).
  std::string blob = SmallBlob();
  std::string payload(blob.substr(16));
  payload.push_back('\0');
  std::string reborn;
  PutFixed32(&reborn, kPlanBlobMagic);
  PutFixed32(&reborn, kPlanBlobVersion);
  PutFixed32(&reborn, Crc32(payload));
  PutFixed32(&reborn, static_cast<uint32_t>(payload.size()));
  reborn += payload;
  OptimizeResult out;
  std::string error;
  EXPECT_FALSE(DecodePlan(reborn, &out, &error));
  EXPECT_EQ(error, "trailing bytes");
}

TEST(PlanSerdeAdversarial, ResealedGarbagePayloadRejected) {
  // Valid header + checksum over garbage: exercises every bounds/enum
  // check in the payload parser (the CRC no longer saves the decoder).
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  OptimizeResult out;
  for (int trial = 0; trial < 200; ++trial) {
    std::string payload;
    size_t len = next() % 160;
    for (size_t i = 0; i < len; ++i) {
      payload.push_back(static_cast<char>(next() & 0xff));
    }
    std::string blob;
    PutFixed32(&blob, kPlanBlobMagic);
    PutFixed32(&blob, kPlanBlobVersion);
    PutFixed32(&blob, Crc32(payload));
    PutFixed32(&blob, static_cast<uint32_t>(payload.size()));
    blob += payload;
    // Must never crash; acceptance would require a byte-exact valid
    // encoding, which random bytes do not produce.
    EXPECT_FALSE(DecodePlan(blob, &out)) << "trial " << trial;
  }
}

TEST(PlanSerdeAdversarial, RawGarbageRejected) {
  uint64_t state = 42;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 16;
  };
  OptimizeResult out;
  for (int trial = 0; trial < 500; ++trial) {
    std::string blob;
    size_t len = next() % 64;
    for (size_t i = 0; i < len; ++i) {
      blob.push_back(static_cast<char>(next() & 0xff));
    }
    EXPECT_FALSE(DecodePlan(blob, &out));
  }
}

// ---------------------------------------------------------------------------
// binio primitives
// ---------------------------------------------------------------------------

TEST(BinIo, VarintRoundTrip) {
  std::string buf;
  std::vector<uint64_t> values = {0,    1,    127,        128,
                                  300,  16383, 16384,     UINT32_MAX,
                                  1ull << 40, UINT64_MAX};
  for (uint64_t v : values) PutVarint64(&buf, v);
  BinReader r(buf);
  for (uint64_t v : values) EXPECT_EQ(r.ReadVarint64(), v);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinIo, ZigzagRoundTrip) {
  std::string buf;
  std::vector<int64_t> values = {0, -1, 1, -2, 63, -64, INT32_MIN,
                                 INT32_MAX, INT64_MIN, INT64_MAX};
  for (int64_t v : values) PutZigzag(&buf, v);
  BinReader r(buf);
  for (int64_t v : values) EXPECT_EQ(r.ReadZigzag(), v);
  EXPECT_TRUE(r.AtEnd());
  // Small negatives stay small on the wire (the reason zigzag exists).
  std::string neg;
  PutZigzag(&neg, -1);
  EXPECT_EQ(neg.size(), 1u);
}

TEST(BinIo, Crc32CheckVector) {
  // The canonical CRC-32 test vector ("123456789" -> 0xCBF43926) pins the
  // polynomial and reflection; chained == one-shot pins the seeding.
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  uint32_t chained = Crc32(std::string_view("12345"));
  chained = Crc32(std::string_view("6789"), chained);
  EXPECT_EQ(chained, 0xcbf43926u);
}

TEST(BinIo, OverlongVarintRejected) {
  // 11 continuation bytes can encode nothing valid in 64 bits.
  std::string buf(11, static_cast<char>(0x80));
  BinReader r(buf);
  r.ReadVarint64();
  EXPECT_TRUE(r.failed());
}

TEST(BinIo, ReaderLatchesOnUnderrun) {
  std::string buf = "\x01";
  BinReader r(buf);
  EXPECT_EQ(r.ReadFixed32(), 0u);  // underrun: 4 > 1
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.ReadU8(), 0u);  // latched: even in-bounds reads now fail
  EXPECT_EQ(r.remaining(), 0u);
}

}  // namespace
}  // namespace eadp
