// Frame-decoder fuzz sweeps (label "fuzz"): the wire codec must be a
// total function over arbitrary bytes — decode never crashes, never reads
// out of bounds (ASan-checked in CI), never accepts a payload whose CRC
// does not hold, and a live server survives sustained garbage without
// giving up well-formed service. Companion to the mutation-based
// differential fuzzer (mutation_fuzz_test): that one attacks the planner,
// this one attacks the transport.

#include <cstdlib>
#include <string>

#include "gtest/gtest.h"
#include "common/rng.h"
#include "server/client.h"
#include "server/optimizer_service.h"
#include "server/plan_server.h"
#include "server/protocol.h"

namespace eadp {
namespace {

int BudgetFromEnv(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  int parsed = std::atoi(v);
  return parsed > 0 ? parsed : fallback;
}

std::string RandomBytes(Rng* rng, size_t max_len) {
  size_t len = static_cast<size_t>(rng->UniformInt(
      0, static_cast<int64_t>(max_len)));
  std::string s(len, '\0');
  for (char& c : s) c = static_cast<char>(rng->Next() & 0xff);
  return s;
}

// Arbitrary buffers through DecodeFrame: totality + the consumed
// contract (never past the buffer, 0 exactly for kNeedMore/kOversized).
TEST(ServerFuzz, DecodeFrameIsTotalOverRandomBytes) {
  const int budget = BudgetFromEnv("EADP_FUZZ_FRAMES", 20000);
  Rng rng(20260809);
  for (int i = 0; i < budget; ++i) {
    std::string buf = RandomBytes(&rng, 64);
    Frame frame;
    size_t consumed = 1234567;
    DecodeStatus status = DecodeFrame(buf, 1 << 16, &frame, &consumed);
    ASSERT_LE(consumed, buf.size());
    if (status == DecodeStatus::kNeedMore ||
        status == DecodeStatus::kOversized) {
      ASSERT_EQ(consumed, 0u);
    } else {
      ASSERT_GT(consumed, 0u);
    }
    if (status == DecodeStatus::kOk) {
      // An accepted frame's payload must re-verify against its CRC.
      std::string reencoded;
      AppendFrame(&reencoded, static_cast<Opcode>(frame.opcode),
                  frame.payload);
      ASSERT_EQ(reencoded, buf.substr(0, consumed));
    }
  }
}

// Every single-bit corruption of a valid frame either still decodes to
// a CRC-consistent frame (flips confined to the length prefix or opcode
// can do that) or is rejected — silent payload corruption never passes.
TEST(ServerFuzz, BitFlippedFramesNeverServeCorruptPayloads) {
  OpenSessionRequest open{"fuzz-session", PlannerKnobs{}};
  const std::string payloads[] = {
      std::string(), std::string("gen chain 5 default 3 :"),
      EncodeOpenSession(open),
      EncodeError(ErrorCode::kBackpressure, "busy")};
  for (const std::string& payload : payloads) {
    std::string frame_bytes;
    AppendFrame(&frame_bytes, Opcode::kOptimize, payload);
    for (size_t bit = 0; bit < frame_bytes.size() * 8; ++bit) {
      std::string mutated = frame_bytes;
      mutated[bit / 8] ^= static_cast<char>(1u << (bit % 8));
      Frame frame;
      size_t consumed = 0;
      DecodeStatus status =
          DecodeFrame(mutated, kMaxFrameBytes, &frame, &consumed);
      if (status != DecodeStatus::kOk) continue;
      ASSERT_EQ(Crc32(frame.payload),
                Crc32(std::string_view(mutated).substr(
                    4 + kFrameHeaderBytes, frame.payload.size())))
          << "bit " << bit;
      // A flip outside the payload+CRC region leaves the payload intact.
      if (bit >= (4 + kFrameHeaderBytes) * 8) {
        FAIL() << "payload/CRC flip at bit " << bit << " decoded kOk";
      }
    }
  }
}

// Request payload decoders over random and bit-flipped bytes: reject or
// produce in-contract values, never crash.
TEST(ServerFuzz, RequestDecodersAreTotal) {
  const int budget = BudgetFromEnv("EADP_FUZZ_PAYLOADS", 20000);
  Rng rng(97);
  OpenSessionRequest open_seed{"s", PlannerKnobs{}};
  SetStatsRequest stats_seed{"s", "gen chain 4 default 1 :", 1, 64.0};
  OptimizeBatchRequest batch_seed{"s", {"a", "b", "c"}};
  const std::string seeds[] = {
      EncodeOpenSession(open_seed), EncodeSetStats(stats_seed),
      EncodeOptimize(OptimizeRequest{"s", "line"}),
      EncodeOptimizeBatch(batch_seed), EncodeError(ErrorCode::kBadCrc, "x")};
  for (int i = 0; i < budget; ++i) {
    std::string payload;
    if (i % 2 == 0) {
      payload = RandomBytes(&rng, 96);
    } else {
      payload = seeds[static_cast<size_t>(rng.UniformInt(0, 4))];
      if (!payload.empty()) {
        size_t bit = static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(payload.size() * 8 - 1)));
        payload[bit / 8] ^= static_cast<char>(1u << (bit % 8));
      }
    }
    OpenSessionRequest open;
    if (DecodeOpenSession(payload, &open)) {
      ASSERT_FALSE(open.session.empty());
      ASSERT_LE(open.session.size(), 256u);
      // Every decoded block is within the server-side effort bounds.
      const PlannerKnobs& k = open.knobs;
      ASSERT_GE(k.adaptive_exact_relations, 1);
      ASSERT_LE(k.adaptive_exact_relations,
                k.algorithm == Algorithm::kEaAll ? 8 : 16);
      ASSERT_GE(k.idp_block_size, 2);
      ASSERT_LE(k.idp_block_size, 8);
      ASSERT_GT(k.h2_tolerance, 0);
      ASSERT_LT(k.h2_tolerance, 1e9);
    }
    SetStatsRequest set_stats;
    if (DecodeSetStats(payload, &set_stats)) {
      ASSERT_GE(set_stats.cardinality, 1.0);
      ASSERT_LT(set_stats.cardinality, 1e15);
    }
    OptimizeRequest optimize;
    (void)DecodeOptimize(payload, &optimize);
    OptimizeBatchRequest batch;
    if (DecodeOptimizeBatch(payload, &batch)) {
      ASSERT_LE(batch.spec_lines.size(), 4096u);
    }
    ErrorResponse error;
    (void)DecodeError(payload, &error);
  }
}

// A live server under sustained garbage: random byte blasts (reconnecting
// whenever the server rightly closes) never wedge it — a well-formed
// exchange still succeeds afterward.
TEST(ServerFuzz, LiveServerSurvivesGarbageStreams) {
  OptimizerService service(ServiceOptions{});
  PlanServer server(&service, PlanServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // One throwaway connection per blast, abandoned without reading: the
  // garbage may be an incomplete frame the server (correctly) keeps
  // waiting on, so reading a reply could block forever. Dropping the
  // connection forces the handler down its torn-read / error-write exit
  // paths instead — including writes against a closed peer (the EPIPE
  // path that must never SIGPIPE the server).
  const int budget = BudgetFromEnv("EADP_FUZZ_GARBAGE", 300);
  Rng rng(4242);
  for (int i = 0; i < budget; ++i) {
    auto conn = ClientConnection::Connect("127.0.0.1", server.port(),
                                          &error);
    ASSERT_NE(conn, nullptr) << error;
    conn->SendRaw(RandomBytes(&rng, 48));
  }

  auto clean = ClientConnection::Connect("127.0.0.1", server.port(), &error);
  ASSERT_NE(clean, nullptr) << error;
  ErrorResponse err;
  ASSERT_TRUE(clean->OpenSession("post-garbage", PlannerKnobs{}, &err))
      << err.message;
  OptimizeResult result;
  ASSERT_TRUE(clean->Optimize("post-garbage", "gen chain 5 default 9 :",
                              &result, nullptr, &err))
      << err.message;
  EXPECT_NE(result.plan, nullptr);
  server.Shutdown();
}

}  // namespace
}  // namespace eadp
