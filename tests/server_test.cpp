// The optimizer-as-a-service stack (server/): frame codec totality, the
// hostile-frame battery (a malformed frame must never kill the connection
// loop, except the oversized case where closing IS the contract), session
// isolation under divergent statistics, deterministic backpressure at the
// admission bound, the fork-based round trip pinning that a plan
// served over the wire is bit-identical to an in-process run, and the
// service's per-spec-line cache-key memo (refreshed exactly when the
// line's statistics move, under concurrent SetStats too).

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <netinet/in.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bitset.h"
#include "cost/recost.h"
#include "gtest/gtest.h"
#include "plangen/plan_serde.h"
#include "plangen/session.h"
#include "queries/mutation.h"
#include "server/client.h"
#include "server/load_client.h"
#include "server/optimizer_service.h"
#include "server/plan_server.h"
#include "server/protocol.h"
#include "tests/test_util.h"

#if defined(__SANITIZE_THREAD__)
#define EADP_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define EADP_TSAN 1
#endif
#endif

namespace eadp {
namespace {

// ---------------------------------------------------------------------------
// Frame codec (pure, no sockets).
// ---------------------------------------------------------------------------

TEST(ServerProtocol, FrameRoundTripAndStreamSync) {
  std::string buf;
  AppendFrame(&buf, Opcode::kOptimize, "payload-one");
  AppendFrame(&buf, Opcode::kStats, "");

  Frame frame;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(buf, kMaxFrameBytes, &frame, &consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(frame.opcode, static_cast<uint8_t>(Opcode::kOptimize));
  EXPECT_EQ(frame.payload, "payload-one");
  std::string rest = buf.substr(consumed);
  ASSERT_EQ(DecodeFrame(rest, kMaxFrameBytes, &frame, &consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(frame.opcode, static_cast<uint8_t>(Opcode::kStats));
  EXPECT_TRUE(frame.payload.empty());
  EXPECT_EQ(consumed, rest.size());
}

TEST(ServerProtocol, DecodePrefixNeedsMore) {
  std::string buf;
  AppendFrame(&buf, Opcode::kOk, "abcdef");
  Frame frame;
  size_t consumed = 99;
  for (size_t n = 0; n < buf.size(); ++n) {
    EXPECT_EQ(DecodeFrame(std::string_view(buf).substr(0, n), kMaxFrameBytes,
                          &frame, &consumed),
              DecodeStatus::kNeedMore)
        << "prefix length " << n;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(ServerProtocol, TooShortFrameSkipsAndStaysInSync) {
  // len = 2 < header size 5: the frame is garbage, but its extent is
  // known, so the decoder must skip exactly past it.
  std::string buf;
  PutFixed32(&buf, 2);
  buf.push_back('x');
  buf.push_back('y');
  AppendFrame(&buf, Opcode::kOk, "next");

  Frame frame;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(buf, kMaxFrameBytes, &frame, &consumed),
            DecodeStatus::kTooShort);
  ASSERT_EQ(consumed, 4u + 2u);
  ASSERT_EQ(DecodeFrame(std::string_view(buf).substr(consumed),
                        kMaxFrameBytes, &frame, &consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(frame.payload, "next");
}

TEST(ServerProtocol, BadCrcSkipsAndStaysInSync) {
  std::string buf;
  AppendFrame(&buf, Opcode::kOptimize, "corrupt-me");
  buf.back() ^= 0x40;  // flip a payload bit
  size_t bad_len = buf.size();
  AppendFrame(&buf, Opcode::kOk, "clean");

  Frame frame;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(buf, kMaxFrameBytes, &frame, &consumed),
            DecodeStatus::kBadCrc);
  ASSERT_EQ(consumed, bad_len);
  ASSERT_EQ(DecodeFrame(std::string_view(buf).substr(consumed),
                        kMaxFrameBytes, &frame, &consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(frame.payload, "clean");
}

TEST(ServerProtocol, OversizedFrameRefusesWithoutConsuming) {
  std::string buf;
  PutFixed32(&buf, static_cast<uint32_t>(kMaxFrameBytes) + 1);
  buf += "whatever";
  Frame frame;
  size_t consumed = 7;
  EXPECT_EQ(DecodeFrame(buf, kMaxFrameBytes, &frame, &consumed),
            DecodeStatus::kOversized);
  EXPECT_EQ(consumed, 0u);
}

TEST(ServerProtocol, KnobsRoundTrip) {
  PlannerKnobs knobs;
  knobs.algorithm = Algorithm::kH2;
  knobs.h2_tolerance = 1.5;
  knobs.top_grouping_elimination = false;
  knobs.prune_without_keys = true;
  knobs.prune_without_cardinality = true;
  knobs.full_fd_dominance = true;
  knobs.adaptive_exact_relations = 9;
  knobs.idp_block_size = 4;

  std::string bytes;
  AppendKnobs(&bytes, knobs);
  BinReader reader(bytes);
  PlannerKnobs decoded;
  ASSERT_TRUE(ReadKnobs(&reader, &decoded));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(decoded.algorithm, knobs.algorithm);
  EXPECT_EQ(decoded.h2_tolerance, knobs.h2_tolerance);
  EXPECT_EQ(decoded.top_grouping_elimination, knobs.top_grouping_elimination);
  EXPECT_EQ(decoded.prune_without_keys, knobs.prune_without_keys);
  EXPECT_EQ(decoded.prune_without_cardinality,
            knobs.prune_without_cardinality);
  EXPECT_EQ(decoded.full_fd_dominance, knobs.full_fd_dominance);
  EXPECT_EQ(decoded.adaptive_exact_relations, knobs.adaptive_exact_relations);
  EXPECT_EQ(decoded.idp_block_size, knobs.idp_block_size);
}

/// The default knobs in the version-2 layout, which carried a track_fds
/// byte after top_grouping_elimination and an idp_inner byte at the end.
std::string VersionTwoKnobs() {
  std::string v2;
  AppendKnobs(&v2, PlannerKnobs{});
  v2[0] = 2;
  const size_t track_fds_at = 1 + 1 + 8 + 1;  // version, algorithm, h2, top
  v2.insert(v2.begin() + track_fds_at, 0);
  v2.push_back(static_cast<char>(Algorithm::kEaPrune));  // idp_inner
  return v2;
}

TEST(ServerProtocol, KnobsRejectTheVersionOneLayout) {
  // Version 1 carried goo_merge_budget and dp_threads after idp_inner;
  // version 2 still carried track_fds and idp_inner. A client sending
  // either layout is refused, not mis-parsed.
  std::string v2 = VersionTwoKnobs();
  std::string v1 = v2;
  v1[0] = 1;
  v1.push_back(1);  // zigzag(-1): goo_merge_budget
  v1.push_back(2);  // zigzag(1): dp_threads
  for (const std::string& old : {v1, v2}) {
    SCOPED_TRACE("version " + std::to_string(old[0]));
    BinReader reader(old);
    PlannerKnobs sink;
    EXPECT_FALSE(ReadKnobs(&reader, &sink));

    // The same block behind a length-prefixed session name "s".
    OpenSessionRequest decoded;
    EXPECT_FALSE(DecodeOpenSession("\x01s" + old, &decoded));
  }
}

TEST(ServerProtocol, KnobsRejectHostileValues) {
  auto reject = [](auto&& mutate) {
    PlannerKnobs knobs;
    std::string bytes;
    AppendKnobs(&bytes, knobs);
    mutate(&bytes);
    BinReader reader(bytes);
    PlannerKnobs sink;
    sink.idp_block_size = -123;  // canary: untouched on failure
    EXPECT_FALSE(ReadKnobs(&reader, &sink));
    EXPECT_EQ(sink.idp_block_size, -123);
  };
  reject([](std::string* b) { (*b)[0] = 99; });          // version skew
  reject([](std::string* b) { (*b)[1] = 42; });          // bad algorithm
  reject([](std::string* b) { b->pop_back(); });         // truncation
  // adaptive_exact_relations = 17: parses but violates the server-side
  // bound.
  reject([](std::string* b) {
    PlannerKnobs hostile;
    hostile.adaptive_exact_relations = 17;
    b->clear();
    AppendKnobs(b, hostile);
  });
  // kEaAll past 8 exact relations: one 16-relation Optimize would pin a
  // pool worker (EA-All grows about 10x per relation).
  reject([](std::string* b) {
    PlannerKnobs hostile;
    hostile.algorithm = Algorithm::kEaAll;
    hostile.adaptive_exact_relations = 9;
    b->clear();
    AppendKnobs(b, hostile);
  });
}

TEST(ServerProtocol, RequestRoundTripsRejectTrailingGarbage) {
  OpenSessionRequest open{"sess", PlannerKnobs{}};
  std::string p = EncodeOpenSession(open);
  OpenSessionRequest open2;
  ASSERT_TRUE(DecodeOpenSession(p, &open2));
  EXPECT_EQ(open2.session, "sess");
  p.push_back('!');
  EXPECT_FALSE(DecodeOpenSession(p, &open2));

  SetStatsRequest stats{"s", "gen chain 4 default 1 :", 2, 4096.0};
  std::string sp = EncodeSetStats(stats);
  SetStatsRequest stats2;
  ASSERT_TRUE(DecodeSetStats(sp, &stats2));
  EXPECT_EQ(stats2.relation, 2u);
  EXPECT_EQ(stats2.cardinality, 4096.0);

  OptimizeBatchRequest batch{"s", {"line-a", "line-b"}};
  std::string bp = EncodeOptimizeBatch(batch);
  OptimizeBatchRequest batch2;
  ASSERT_TRUE(DecodeOptimizeBatch(bp, &batch2));
  ASSERT_EQ(batch2.spec_lines.size(), 2u);
  EXPECT_EQ(batch2.spec_lines[1], "line-b");

  std::string ep = EncodeError(ErrorCode::kBackpressure, "busy");
  ErrorResponse err;
  ASSERT_TRUE(DecodeError(ep, &err));
  EXPECT_EQ(err.code, ErrorCode::kBackpressure);
  EXPECT_EQ(err.message, "busy");
}

// ---------------------------------------------------------------------------
// Live-server fixture.
// ---------------------------------------------------------------------------

class PlanServerTest : public ::testing::Test {
 protected:
  void StartServer(const ServiceOptions& service_options) {
    service_ = std::make_unique<OptimizerService>(service_options);
    PlanServerOptions options;
    server_ = std::make_unique<PlanServer>(service_.get(), options);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  std::unique_ptr<ClientConnection> Connect() {
    std::string error;
    auto conn = ClientConnection::Connect("127.0.0.1", server_->port(),
                                          &error);
    EXPECT_NE(conn, nullptr) << error;
    return conn;
  }

  void TearDown() override {
    if (server_) server_->Shutdown();
  }

  std::unique_ptr<OptimizerService> service_;
  std::unique_ptr<PlanServer> server_;
};

ErrorCode ExpectErrorFrame(ClientConnection* conn) {
  Frame frame;
  DecodeStatus decode = DecodeStatus::kOk;
  if (conn->Recv(&frame, &decode) != ReadStatus::kOk ||
      decode != DecodeStatus::kOk ||
      frame.opcode != static_cast<uint8_t>(Opcode::kError)) {
    return ErrorCode::kNone;
  }
  ErrorResponse err;
  if (!DecodeError(frame.payload, &err)) return ErrorCode::kNone;
  return err.code;
}

TEST_F(PlanServerTest, HostileFramesSurviveTheConnection) {
  StartServer(ServiceOptions{});
  auto conn = Connect();
  ASSERT_NE(conn, nullptr);

  // Frame shorter than its header.
  std::string torn;
  PutFixed32(&torn, 3);
  torn += "abc";
  ASSERT_TRUE(conn->SendRaw(torn));
  EXPECT_EQ(ExpectErrorFrame(conn.get()), ErrorCode::kMalformedFrame);

  // Valid frame with a flipped payload bit.
  std::string corrupt;
  AppendFrame(&corrupt, Opcode::kOptimize, "gen chain 4 default 1 :");
  corrupt.back() ^= 0x01;
  ASSERT_TRUE(conn->SendRaw(corrupt));
  EXPECT_EQ(ExpectErrorFrame(conn.get()), ErrorCode::kBadCrc);

  // Unknown opcode, valid CRC.
  std::string unknown;
  AppendFrame(&unknown, static_cast<Opcode>(0x42), "???");
  ASSERT_TRUE(conn->SendRaw(unknown));
  EXPECT_EQ(ExpectErrorFrame(conn.get()), ErrorCode::kBadOpcode);

  // Undecodable payload under a valid request opcode.
  std::string bad_payload;
  AppendFrame(&bad_payload, Opcode::kOpenSession, "\xff\xff\xff");
  ASSERT_TRUE(conn->SendRaw(bad_payload));
  EXPECT_EQ(ExpectErrorFrame(conn.get()), ErrorCode::kBadRequest);

  // Knobs in the retired version-2 layout, and a kEaAll session past its
  // exact-relation cap.
  PlannerKnobs ea_all;
  ea_all.algorithm = Algorithm::kEaAll;
  ea_all.adaptive_exact_relations = 16;
  std::string hostile_knobs;
  AppendKnobs(&hostile_knobs, ea_all);
  for (const std::string& knobs : {VersionTwoKnobs(), hostile_knobs}) {
    std::string open;
    AppendFrame(&open, Opcode::kOpenSession, "\x01s" + knobs);
    ASSERT_TRUE(conn->SendRaw(open));
    EXPECT_EQ(ExpectErrorFrame(conn.get()), ErrorCode::kBadRequest);
  }

  // The SAME connection still serves a well-formed exchange.
  ErrorResponse err;
  ASSERT_TRUE(conn->OpenSession("survivor", PlannerKnobs{}, &err))
      << err.message;
  OptimizeResult result;
  ASSERT_TRUE(conn->Optimize("survivor", "gen chain 5 default 7 :", &result,
                             nullptr, &err))
      << err.message;
  EXPECT_NE(result.plan, nullptr);
}

TEST_F(PlanServerTest, OversizedFrameClosesAfterError) {
  StartServer(ServiceOptions{});
  auto conn = Connect();
  ASSERT_NE(conn, nullptr);

  std::string huge;
  PutFixed32(&huge, static_cast<uint32_t>(kMaxFrameBytes) + 1);
  ASSERT_TRUE(conn->SendRaw(huge));
  EXPECT_EQ(ExpectErrorFrame(conn.get()), ErrorCode::kOversized);

  Frame frame;
  DecodeStatus decode = DecodeStatus::kOk;
  EXPECT_EQ(conn->Recv(&frame, &decode), ReadStatus::kEof);
}

TEST_F(PlanServerTest, SessionsIsolateDivergentStatistics) {
  StartServer(ServiceOptions{});
  auto conn = Connect();
  ASSERT_NE(conn, nullptr);
  const std::string line = "gen chain 6 default 11 :";

  ErrorResponse err;
  ASSERT_TRUE(conn->OpenSession("a", PlannerKnobs{}, &err));
  ASSERT_TRUE(conn->OpenSession("b", PlannerKnobs{}, &err));

  OptimizeResult a1, b1;
  ASSERT_TRUE(conn->Optimize("a", line, &a1, nullptr, &err));
  ASSERT_TRUE(conn->Optimize("b", line, &b1, nullptr, &err));
  ASSERT_NE(a1.plan, nullptr);
  ASSERT_NE(b1.plan, nullptr);
  // Identical catalogs: sharing one cache entry is correct, costs agree.
  EXPECT_EQ(a1.plan->cost, b1.plan->cost);

  // Drift session a's statistics only.
  SetStatsRequest drift{"a", line, 0, 1000000.0};
  ASSERT_TRUE(conn->SetStats(drift, &err)) << err.message;

  OptimizeResult a2, b2;
  std::string a2_stats;
  ASSERT_TRUE(conn->Optimize("a", line, &a2, &a2_stats, &err));
  ASSERT_TRUE(conn->Optimize("b", line, &b2, nullptr, &err));
  ASSERT_NE(a2.plan, nullptr);
  ASSERT_NE(b2.plan, nullptr);
  // a re-planned under the drifted overlay (no stale cross-serve)...
  EXPECT_EQ(a2_stats.find("\"cache_hit\":true"), std::string::npos)
      << a2_stats;
  EXPECT_NE(a2.plan->cost, a1.plan->cost);
  // ...while b keeps being served its original statistics' plan.
  EXPECT_EQ(b2.plan->cost, b1.plan->cost);

  // And b's cost matches a local uncached reference run bit for bit.
  CorpusEntry entry;
  std::string perr;
  ASSERT_TRUE(ParseCorpusEntry(line, &entry, &perr)) << perr;
  OptimizeResult reference =
      OptimizeAdaptiveUncached(MaterializeSeed(entry.seed),
                               OptimizerOptions{});
  ASSERT_NE(reference.plan, nullptr);
  EXPECT_EQ(b2.plan->cost, reference.plan->cost);
}

TEST_F(PlanServerTest, BadSpecLinesAreRequestErrors) {
  StartServer(ServiceOptions{});
  auto conn = Connect();
  ASSERT_NE(conn, nullptr);
  ErrorResponse err;
  ASSERT_TRUE(conn->OpenSession("s", PlannerKnobs{}, &err));

  EXPECT_FALSE(conn->Optimize("s", "gen gibberish 5 default 1 :", nullptr,
                              nullptr, &err));
  EXPECT_EQ(err.code, ErrorCode::kBadRequest);
  // num_relations beyond the service bound.
  EXPECT_FALSE(conn->Optimize("s", "gen chain 5000 default 1 :", nullptr,
                              nullptr, &err));
  EXPECT_EQ(err.code, ErrorCode::kBadRequest);
  // A mutation step that cannot apply must be an error, not an abort.
  EXPECT_FALSE(conn->Optimize("s", "gen chain 4 default 1 : drop-groupby:1",
                              nullptr, nullptr, &err));
  EXPECT_EQ(err.code, ErrorCode::kBadRequest);
  // Unknown session.
  EXPECT_FALSE(conn->Optimize("ghost", "gen chain 4 default 1 :", nullptr,
                              nullptr, &err));
  EXPECT_EQ(err.code, ErrorCode::kNoSuchSession);
  // Relation indices that turn negative as an int must not pass the range
  // check and write outside the catalog.
  for (uint32_t relation : {0x80000000u, UINT32_MAX}) {
    SetStatsRequest stats{"s", "gen chain 4 default 1 :", relation, 100.0};
    EXPECT_FALSE(conn->SetStats(stats, &err)) << relation;
    EXPECT_EQ(err.code, ErrorCode::kBadRequest) << relation;
  }
  // The connection survived all of it.
  ASSERT_TRUE(conn->Optimize("s", "gen chain 4 default 1 :", nullptr,
                             nullptr, &err))
      << err.message;
}

TEST_F(PlanServerTest, BackpressureAtTheAdmissionBound) {
  ServiceOptions options;
  options.pool_threads = 1;
  options.max_inflight = 1;
  StartServer(options);

  // Occupy the single pool slot with a sentinel so the admitted request
  // below is provably still in flight when the second one arrives.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  auto sentinel = service_->pool()->Submit([gate] { gate.wait(); });

  auto conn_a = Connect();
  auto conn_b = Connect();
  ASSERT_NE(conn_a, nullptr);
  ASSERT_NE(conn_b, nullptr);
  ErrorResponse err;
  ASSERT_TRUE(conn_a->OpenSession("a", PlannerKnobs{}, &err));
  ASSERT_TRUE(conn_b->OpenSession("b", PlannerKnobs{}, &err));

  OptimizeRequest req{"a", "gen chain 5 default 3 :"};
  ASSERT_TRUE(conn_a->Send(Opcode::kOptimize, EncodeOptimize(req)));
  // The request admits, submits behind the sentinel, and waits.
  while (service_->inflight() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  EXPECT_FALSE(conn_b->Optimize("b", "gen chain 5 default 4 :", nullptr,
                                nullptr, &err));
  EXPECT_EQ(err.code, ErrorCode::kBackpressure);

  release.set_value();
  sentinel.get();
  // The admitted request completes normally once the pool frees up.
  Frame frame;
  DecodeStatus decode = DecodeStatus::kOk;
  ASSERT_EQ(conn_a->Recv(&frame, &decode), ReadStatus::kOk);
  EXPECT_EQ(frame.opcode, static_cast<uint8_t>(Opcode::kPlanBlob));
  ASSERT_EQ(conn_a->Recv(&frame, &decode), ReadStatus::kOk);
  EXPECT_EQ(frame.opcode, static_cast<uint8_t>(Opcode::kStatsJson));
  // And the freed slot admits session b again.
  EXPECT_TRUE(conn_b->Optimize("b", "gen chain 5 default 4 :", nullptr,
                               nullptr, &err))
      << err.message;
}

TEST_F(PlanServerTest, BatchStreamsPairsInOrder) {
  StartServer(ServiceOptions{});
  auto conn = Connect();
  ASSERT_NE(conn, nullptr);
  ErrorResponse err;
  ASSERT_TRUE(conn->OpenSession("s", PlannerKnobs{}, &err));

  OptimizeBatchRequest req;
  req.session = "s";
  req.spec_lines = {"gen chain 4 default 1 :", "gen not-a-topology 4 x 1 :",
                    "gen star 5 default 2 :"};
  ASSERT_TRUE(conn->Send(Opcode::kOptimizeBatch, EncodeOptimizeBatch(req)));

  // Line 1: pair. Line 2: error frame. Line 3: pair. Then kBatchDone(2).
  Frame frame;
  DecodeStatus decode = DecodeStatus::kOk;
  ASSERT_EQ(conn->Recv(&frame, &decode), ReadStatus::kOk);
  EXPECT_EQ(frame.opcode, static_cast<uint8_t>(Opcode::kPlanBlob));
  ASSERT_EQ(conn->Recv(&frame, &decode), ReadStatus::kOk);
  EXPECT_EQ(frame.opcode, static_cast<uint8_t>(Opcode::kStatsJson));
  ASSERT_EQ(conn->Recv(&frame, &decode), ReadStatus::kOk);
  EXPECT_EQ(frame.opcode, static_cast<uint8_t>(Opcode::kError));
  ASSERT_EQ(conn->Recv(&frame, &decode), ReadStatus::kOk);
  EXPECT_EQ(frame.opcode, static_cast<uint8_t>(Opcode::kPlanBlob));
  ASSERT_EQ(conn->Recv(&frame, &decode), ReadStatus::kOk);
  EXPECT_EQ(frame.opcode, static_cast<uint8_t>(Opcode::kStatsJson));
  ASSERT_EQ(conn->Recv(&frame, &decode), ReadStatus::kOk);
  ASSERT_EQ(frame.opcode, static_cast<uint8_t>(Opcode::kBatchDone));
  BinReader r(frame.payload);
  EXPECT_EQ(r.ReadVarint64(), 2u);
  EXPECT_TRUE(r.AtEnd());
}

TEST_F(PlanServerTest, ConnectionChurnReapsFinishedHandlers) {
  // One handler thread per accepted connection; a long-running server must
  // join the finished ones instead of keeping every thread until Shutdown
  // (which would leave kCycles threads here).
  StartServer(ServiceOptions{});
  constexpr int kCycles = 2000;
  size_t peak = 0;
  for (int i = 0; i < kCycles; ++i) {
    auto conn = Connect();
    ASSERT_NE(conn, nullptr) << "cycle " << i;
    conn.reset();  // close without a request
    if (i % 50 == 0) peak = std::max(peak, server_->handler_threads());
  }
  // Handlers still winding down at an accept are reaped by a later one,
  // so the count tracks in-flight connections, not connections served.
  EXPECT_LE(peak, static_cast<size_t>(kCycles / 4));

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  auto accepted_at_least = [&](uint64_t n) {
    while (server_->connections_accepted() < n &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return server_->connections_accepted() >= n;
  };
  ASSERT_TRUE(accepted_at_least(kCycles));

  // Once the churn stops, one more connection reaps every finished
  // handler: at most it and a straggler remain.
  size_t settled = server_->handler_threads();
  while (settled > 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    uint64_t accepted = server_->connections_accepted();
    Connect().reset();
    accepted_at_least(accepted + 1);
    settled = server_->handler_threads();
  }
  EXPECT_LE(settled, 2u);
}

TEST_F(PlanServerTest, StatsAndInvalidateIntrospection) {
  StartServer(ServiceOptions{});
  auto conn = Connect();
  ASSERT_NE(conn, nullptr);
  ErrorResponse err;
  ASSERT_TRUE(conn->OpenSession("s", PlannerKnobs{}, &err));
  ASSERT_TRUE(
      conn->Optimize("s", "gen chain 5 default 3 :", nullptr, nullptr, &err));

  std::string global;
  ASSERT_TRUE(conn->StatsJson("", &global, &err));
  EXPECT_NE(global.find("\"sessions\":1"), std::string::npos) << global;
  EXPECT_NE(global.find("\"cache\":"), std::string::npos) << global;

  std::string per_session;
  ASSERT_TRUE(conn->StatsJson("s", &per_session, &err));
  EXPECT_NE(per_session.find("\"optimizes\":1"), std::string::npos)
      << per_session;

  ASSERT_TRUE(conn->InvalidateCache(&err));
  std::string warm_stats;
  ASSERT_TRUE(conn->Optimize("s", "gen chain 5 default 3 :", nullptr,
                             &warm_stats, &err));
  // The L1 entry is gone post-invalidation: this serve planned fresh.
  EXPECT_EQ(warm_stats.find("\"cache_tier\":1"), std::string::npos)
      << warm_stats;
}

// ---------------------------------------------------------------------------
// Round-trip bit-identity: a plan served over the wire re-encodes to the
// same bytes as an in-process run of the identical query and knobs. Under
// TSan the server runs in-process (fork + TSan do not mix); otherwise a
// genuinely separate server process serves the plans.
// ---------------------------------------------------------------------------

void ExpectServedPlansBitIdentical(int port) {
  std::string error;
  auto conn = ClientConnection::Connect("127.0.0.1", port, &error);
  ASSERT_NE(conn, nullptr) << error;
  ErrorResponse err;
  ASSERT_TRUE(conn->OpenSession("pin", PlannerKnobs{}, &err)) << err.message;

  const std::string lines[] = {
      "gen chain 6 default 11 :",
      "gen star 7 default 12 :",
      "gen random-tree 8 default 13 :",
      "gen cycle 6 inner 14 :",
      "tpch q3 :",
  };
  for (const std::string& line : lines) {
    SCOPED_TRACE(line);
    OptimizeResult served;
    ASSERT_TRUE(conn->Optimize("pin", line, &served, nullptr, &err))
        << err.message;

    CorpusEntry entry;
    std::string perr;
    ASSERT_TRUE(ParseCorpusEntry(line, &entry, &perr)) << perr;
    OptimizeResult local =
        PlannerSession().Optimize(MaterializeSeed(entry.seed));

    // optimize_ms (and serve-path counters) legitimately differ; the
    // *plan* must not. Zero the stats on both sides and compare the full
    // deterministic encoding byte for byte.
    served.stats = OptimizeStats{};
    local.stats = OptimizeStats{};
    EXPECT_EQ(EncodePlan(served), EncodePlan(local));
  }
}

#if !defined(EADP_TSAN)
TEST(PlanServerRoundTrip, ForkedServerServesBitIdenticalPlans) {
  // Bind the listener in the parent so the kernel-chosen port is known
  // before the child exists; the child adopts the inherited fd.
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 8), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);
  int port = ntohs(addr.sin_port);

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: build the whole service AFTER the fork (thread pools do not
    // survive fork) and serve until the parent's kShutdown frame.
    ServiceOptions service_options;
    service_options.pool_threads = 2;
    OptimizerService service(service_options);
    PlanServerOptions server_options;
    server_options.adopted_listen_fd = listen_fd;
    PlanServer server(&service, server_options);
    std::string error;
    if (!server.Listen(&error)) _exit(3);
    server.Serve();
    server.Shutdown();
    _exit(0);
  }

  ::close(listen_fd);
  ExpectServedPlansBitIdentical(port);

  std::string error;
  auto conn = ClientConnection::Connect("127.0.0.1", port, &error);
  ASSERT_NE(conn, nullptr) << error;
  ErrorResponse err;
  EXPECT_TRUE(conn->Shutdown(&err)) << err.message;

  int status = -1;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}
#else
TEST(PlanServerRoundTrip, InProcessServerServesBitIdenticalPlans) {
  OptimizerService service(ServiceOptions{});
  PlanServer server(&service, PlanServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ExpectServedPlansBitIdentical(server.port());
  server.Shutdown();
}
#endif

// The load generator end to end, scaled down: concurrent Zipf sessions
// sustain a warm hit rate matching the in-process cache benchmarks and
// zero cost mismatches (the cross-session-serve detector).
TEST(PlanServerLoad, ConcurrentZipfSessionsHitWarmCache) {
  OptimizerService service(ServiceOptions{});
  PlanServer server(&service, PlanServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  LoadOptions options;
  options.port = server.port();
  options.connections = 4;
  options.queries_per_connection = 50;
  options.shapes = 12;
  bool ok = false;
  LoadReport report = RunLoad(options, &ok);
  server.Shutdown();

  ASSERT_TRUE(ok);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.cost_mismatches, 0u);
  EXPECT_EQ(report.queries, 4u * 50u);
  EXPECT_GE(report.hit_rate, 0.95);
}

// ---------------------------------------------------------------------------
// The service's cache-key memo: each materialized spec line keeps its
// PlanCacheSplitKey and recomputes it only when the line's catalog epoch
// moved. Every served plan must equal an uncached run of an identically
// mutated local query — a memo left stale by a SetStats would serve the
// plan of the old statistics.
// ---------------------------------------------------------------------------

/// The query the service materializes for a chain-free `line`.
Query MaterializeLine(const std::string& line) {
  CorpusEntry entry;
  std::string error;
  EXPECT_TRUE(ParseCorpusEntry(line, &entry, &error)) << error;
  EXPECT_TRUE(entry.chain.empty()) << line;
  return MaterializeSeed(entry.seed);
}

/// SetStats' repair rule applied to a local query: key attributes track
/// the new cardinality, non-key distincts are capped at it.
void ApplySetStats(Query* query, int r, double cardinality) {
  Catalog* catalog = query->mutable_catalog();
  double card = std::max(1.0, std::floor(cardinality));
  const RelationDef& rel = catalog->relation(r);
  AttrSet key_attrs;
  for (const AttrSet& key : rel.keys) key_attrs.UnionWith(key);
  catalog->SetCardinality(r, card);
  for (int a : BitsOf(rel.attributes)) {
    catalog->SetDistinct(a, key_attrs.Contains(a)
                                ? card
                                : std::min(catalog->DistinctOf(a), card));
  }
}

/// Plan-only bytes of an uncached run: the served-plan reference.
std::string UncachedBytes(const Query& query, const PlannerKnobs& knobs) {
  return PlanOnlyBytes(PlannerSession(knobs, PlannerContext{}).Optimize(query));
}

/// The value of `"name":<uint>` in a flat stats document.
uint64_t JsonCounter(const std::string& json, const std::string& name) {
  std::string tag = "\"" + name + "\":";
  size_t at = json.find(tag);
  EXPECT_NE(at, std::string::npos) << name << " missing from " << json;
  if (at == std::string::npos) return 0;
  return std::stoull(json.substr(at + tag.size()));
}

uint64_t KeyRefreshes(OptimizerService* service, const std::string& session) {
  std::string json;
  EXPECT_TRUE(service->StatsJson(session, &json).ok());
  return JsonCounter(json, "key_refreshes");
}

/// Optimizes `line` in `session` and checks the served plan against an
/// uncached run of `local` under `knobs`.
void ExpectServedMatchesUncached(OptimizerService* service,
                                 const std::string& session,
                                 const std::string& line, const Query& local,
                                 const PlannerKnobs& knobs,
                                 OptimizeResult* served_out = nullptr) {
  OptimizeResult served;
  ServiceStatus status = service->Optimize(session, line, &served);
  ASSERT_TRUE(status.ok()) << status.message;
  ASSERT_NE(served.plan, nullptr);
  // EXPECT_TRUE, not EXPECT_EQ: a mismatch would dump two binary blobs.
  EXPECT_TRUE(PlanOnlyBytes(served) == UncachedBytes(local, knobs))
      << "served plan differs from the uncached reference";
  if (served_out != nullptr) *served_out = std::move(served);
}

TEST(ServiceKeyMemo, ServedPlansFollowEveryStatisticsChange) {
  OptimizerService service(ServiceOptions{});
  const PlannerKnobs knobs;
  ASSERT_TRUE(service.OpenSession("s", knobs).ok());
  const std::string line = "gen chain 6 default 11 :";
  Query local = MaterializeLine(line);

  {
    SCOPED_TRACE("first Optimize");
    ExpectServedMatchesUncached(&service, "s", line, local, knobs);
    EXPECT_EQ(KeyRefreshes(&service, "s"), 1u);
  }

  {
    SCOPED_TRACE("value-changing SetStats");
    ASSERT_TRUE(service.SetStats({"s", line, 0, 1000000.0}).ok());
    ApplySetStats(&local, 0, 1000000.0);
    ExpectServedMatchesUncached(&service, "s", line, local, knobs);
    EXPECT_EQ(KeyRefreshes(&service, "s"), 2u);
  }
  {
    // Same values: the epoch still moves, so the key is recomputed once,
    // and the recomputed overlay compares equal — an exact hit.
    SCOPED_TRACE("same-value SetStats");
    double card = local.catalog().relation(0).cardinality;
    ASSERT_TRUE(service.SetStats({"s", line, 0, card}).ok());
    ApplySetStats(&local, 0, card);
    OptimizeResult served;
    ExpectServedMatchesUncached(&service, "s", line, local, knobs, &served);
    EXPECT_EQ(served.stats.cache_tier, 1);
    EXPECT_FALSE(served.stats.replan_avoided);
    EXPECT_EQ(KeyRefreshes(&service, "s"), 3u);
  }
  {
    SCOPED_TRACE("SetStats on a line never optimized");
    const std::string fresh_line = "gen star 5 default 4898 :";
    Query fresh_local = MaterializeLine(fresh_line);
    ASSERT_TRUE(service.SetStats({"s", fresh_line, 2, 77.0}).ok());
    ApplySetStats(&fresh_local, 2, 77.0);
    ExpectServedMatchesUncached(&service, "s", fresh_line, fresh_local,
                                knobs);
    EXPECT_EQ(KeyRefreshes(&service, "s"), 4u);
  }
  // The first line is untouched by the other line's SetStats.
  ExpectServedMatchesUncached(&service, "s", line, local, knobs);
  EXPECT_EQ(KeyRefreshes(&service, "s"), 4u);
}

TEST(ServiceKeyMemo, SessionsWithDifferentKnobsKeepTheirOwnKeys) {
  OptimizerService service(ServiceOptions{});
  PlannerKnobs dphyp;
  dphyp.algorithm = Algorithm::kDphyp;
  const PlannerKnobs ea;
  ASSERT_TRUE(service.OpenSession("ea", ea).ok());
  ASSERT_TRUE(service.OpenSession("dphyp", dphyp).ok());
  const std::string line = "gen random-tree 7 default 13 :";
  Query local = MaterializeLine(line);
  ASSERT_TRUE(UncachedBytes(local, ea) != UncachedBytes(local, dphyp))
      << "the line must tell the two knob sets apart";

  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round == 0 ? "cold" : "warm");
    ExpectServedMatchesUncached(&service, "ea", line, local, ea);
    ExpectServedMatchesUncached(&service, "dphyp", line, local, dphyp);
  }
  // Drifting one session's statistics moves only that session's key.
  ASSERT_TRUE(service.SetStats({"dphyp", line, 1, 5.0}).ok());
  Query drifted = MaterializeLine(line);
  ApplySetStats(&drifted, 1, 5.0);
  ExpectServedMatchesUncached(&service, "ea", line, local, ea);
  ExpectServedMatchesUncached(&service, "dphyp", line, drifted, dphyp);
  EXPECT_EQ(KeyRefreshes(&service, "ea"), 1u);
  EXPECT_EQ(KeyRefreshes(&service, "dphyp"), 2u);
}

TEST(ServiceKeyMemo, ExactHitDriftBandAndReplanOutcomes) {
  ServiceOptions options;
  options.drift_tolerance = 1.0;
  OptimizerService service(options);
  const PlannerKnobs knobs;
  ASSERT_TRUE(service.OpenSession("s", knobs).ok());
  const std::string line = "gen chain 6 default 11 :";
  Query local = MaterializeLine(line);
  ExpectServedMatchesUncached(&service, "s", line, local, knobs);

  {
    SCOPED_TRACE("exact hit");
    OptimizeResult served;
    ExpectServedMatchesUncached(&service, "s", line, local, knobs, &served);
    EXPECT_EQ(served.stats.cache_tier, 1);
    EXPECT_FALSE(served.stats.replan_avoided);
  }
  {
    // A 1% drift of a keyless relation (one statistic moves) stays inside
    // the band: the service serves the cached plan (built under the
    // previous statistics) re-costed under the new ones. A stale memo
    // would probe with the old overlay and report a plain exact hit.
    SCOPED_TRACE("drift band");
    const std::string before = UncachedBytes(local, knobs);
    constexpr int kKeyless = 3;
    ASSERT_TRUE(local.catalog().relation(kKeyless).keys.empty());
    double card =
        std::floor(local.catalog().relation(kKeyless).cardinality * 1.01);
    ASSERT_NE(card, local.catalog().relation(kKeyless).cardinality);
    ASSERT_TRUE(service.SetStats({"s", line, kKeyless, card}).ok());
    ApplySetStats(&local, kKeyless, card);
    OptimizeResult served;
    ASSERT_TRUE(service.Optimize("s", line, &served).ok());
    ASSERT_NE(served.plan, nullptr);
    ASSERT_TRUE(served.stats.replan_avoided);
    EXPECT_EQ(served.stats.cache_tier, 1);
    EXPECT_TRUE(PlanOnlyBytes(served) == before)
        << "drift-band serve is not the plan of the previous statistics";
    RecostResult rc = RecostPlan(served.plan, local);
    ASSERT_TRUE(rc.ok);
    EXPECT_EQ(served.stats.recosted_cost, rc.cost);
  }
  {
    // A thousandfold drift leaves the band: re-planned inline, the fresh
    // plan served.
    SCOPED_TRACE("re-plan");
    double card = local.catalog().relation(0).cardinality * 1000;
    ASSERT_TRUE(service.SetStats({"s", line, 0, card}).ok());
    ApplySetStats(&local, 0, card);
    OptimizeResult served;
    ExpectServedMatchesUncached(&service, "s", line, local, knobs, &served);
    EXPECT_FALSE(served.stats.cache_hit);
    EXPECT_FALSE(served.stats.replan_avoided);
  }
  EXPECT_EQ(KeyRefreshes(&service, "s"), 3u);
}

TEST(ServiceKeyMemo, WarmHitsNeverRefingerprint) {
  OptimizerService service(ServiceOptions{});
  ASSERT_TRUE(service.OpenSession("s", PlannerKnobs{}).ok());
  const std::string line = "gen star 6 default 12 :";
  OptimizeResult served;
  ASSERT_TRUE(service.Optimize("s", line, &served).ok());
  const uint64_t cold = KeyRefreshes(&service, "s");
  EXPECT_EQ(cold, 1u);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(service.Optimize("s", line, &served).ok());
    ASSERT_TRUE(served.stats.cache_hit);
  }
  EXPECT_EQ(KeyRefreshes(&service, "s"), cold);
  ASSERT_TRUE(service.SetStats({"s", line, 0, 123.0}).ok());
  EXPECT_EQ(KeyRefreshes(&service, "s"), cold) << "SetStats alone is lazy";
  ASSERT_TRUE(service.Optimize("s", line, &served).ok());
  EXPECT_EQ(KeyRefreshes(&service, "s"), cold + 1);
}

/// Cardinality of relation `r`'s scan in `plan` (-1 when absent).
double ScanCardinality(const PlanNode* plan, int r) {
  if (plan == nullptr) return -1;
  if (plan->op == PlanOp::kScan && plan->relation == r) {
    return plan->cardinality;
  }
  double left = ScanCardinality(plan->left, r);
  return left >= 0 ? left : ScanCardinality(plan->right, r);
}

TEST(ServiceKeyMemo, ConcurrentOptimizeAndSetStatsServeTheirStatistics) {
  // Four threads interleave Optimize and SetStats on one session and one
  // line. Writers append each value to a log before applying it (both
  // under `write_mu`), so an Optimize that read log sizes `before` and
  // `after` around its call saw one of log[before-1 .. after-1]. The
  // served plan's scan of relation 0 names the value it was planned
  // under; that value must be in the window and the plan must be the
  // uncached reference for it. Every value is >= the original
  // cardinality, which is written once up front, so the repair rule
  // makes the catalog a function of the last value written (non-key
  // distincts stay capped at the original). The loop never writes the
  // up-front value, so a memo stuck on the first statistics is caught on
  // every call after the first write.
  OptimizerService service(ServiceOptions{});
  const PlannerKnobs knobs;
  ASSERT_TRUE(service.OpenSession("s", knobs).ok());
  const std::string line = "gen chain 5 default 3 :";
  const double base =
      MaterializeLine(line).catalog().relation(0).cardinality;
  const double values[] = {base * 2, base * 3, base * 5, base * 7};

  struct Reference {
    double value;
    std::string bytes;
  };
  std::map<double, Reference> reference;  // scan cardinality -> reference
  for (double v : {base, values[0], values[1], values[2], values[3]}) {
    Query q = MaterializeLine(line);
    ApplySetStats(&q, 0, base);
    ApplySetStats(&q, 0, v);
    OptimizeResult r = PlannerSession(knobs, PlannerContext{}).Optimize(q);
    ASSERT_NE(r.plan, nullptr);
    double scan = ScanCardinality(r.plan, 0);
    ASSERT_GE(scan, 0);
    ASSERT_TRUE(reference.emplace(scan, Reference{v, PlanOnlyBytes(r)}).second)
        << "each value must show in the scan";
  }

  std::mutex write_mu;
  std::vector<double> log = {base};
  ASSERT_TRUE(service.SetStats({"s", line, 0, base}).ok());
  auto log_size = [&] {
    std::lock_guard<std::mutex> lock(write_mu);
    return log.size();
  };

  constexpr int kThreads = 4;
  constexpr int kIterations = 120;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<int> served_count(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        if ((i + t) % 3 == 0) {
          double v = values[(i * 7 + t) % 4];
          std::lock_guard<std::mutex> lock(write_mu);
          log.push_back(v);
          if (!service.SetStats({"s", line, 0, v}).ok()) ++mismatches[t];
          continue;
        }
        size_t before = log_size();
        OptimizeResult served;
        bool ok = service.Optimize("s", line, &served).ok() &&
                  served.plan != nullptr;
        size_t after = log_size();
        ++served_count[t];
        auto it = ok ? reference.find(ScanCardinality(served.plan, 0))
                     : reference.end();
        if (it == reference.end() ||
            it->second.bytes != PlanOnlyBytes(served)) {
          ++mismatches[t];
          continue;
        }
        std::lock_guard<std::mutex> lock(write_mu);
        if (std::find(log.begin() + static_cast<ptrdiff_t>(before - 1),
                      log.begin() + static_cast<ptrdiff_t>(after),
                      it->second.value) ==
            log.begin() + static_cast<ptrdiff_t>(after)) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    EXPECT_GT(served_count[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace eadp
