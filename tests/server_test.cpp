// The optimizer-as-a-service stack (server/): frame codec totality, the
// hostile-frame battery (a malformed frame must never kill the connection
// loop, except the oversized case where closing IS the contract), session
// isolation under divergent statistics, deterministic backpressure at the
// admission bound, and the fork-based round trip pinning that a plan
// served over the wire is bit-identical to an in-process run.

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <netinet/in.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "plangen/plan_serde.h"
#include "plangen/session.h"
#include "queries/mutation.h"
#include "server/client.h"
#include "server/load_client.h"
#include "server/optimizer_service.h"
#include "server/plan_server.h"
#include "server/protocol.h"

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
  knobs.builder.top_grouping_elimination = false;
  knobs.builder.track_fds = true;
  knobs.prune_without_keys = true;
  knobs.full_fd_dominance = true;
  knobs.adaptive_exact_relations = 9;
  knobs.idp_block_size = 4;
  knobs.idp_inner = Algorithm::kEaAll;
  knobs.goo_merge_budget = 7;
  knobs.dp_threads = 3;

  std::string bytes;
  AppendKnobs(&bytes, knobs);
  BinReader reader(bytes);
  PlannerKnobs decoded;
  ASSERT_TRUE(ReadKnobs(&reader, &decoded));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(decoded.algorithm, knobs.algorithm);
  EXPECT_EQ(decoded.h2_tolerance, knobs.h2_tolerance);
  EXPECT_EQ(decoded.builder.top_grouping_elimination,
            knobs.builder.top_grouping_elimination);
  EXPECT_EQ(decoded.builder.track_fds, knobs.builder.track_fds);
  EXPECT_EQ(decoded.prune_without_keys, knobs.prune_without_keys);
  EXPECT_EQ(decoded.full_fd_dominance, knobs.full_fd_dominance);
  EXPECT_EQ(decoded.adaptive_exact_relations, knobs.adaptive_exact_relations);
  EXPECT_EQ(decoded.idp_block_size, knobs.idp_block_size);
  EXPECT_EQ(decoded.idp_inner, knobs.idp_inner);
  // Not on the wire: a remote session plans with the defaults.
  EXPECT_EQ(decoded.goo_merge_budget, PlannerKnobs{}.goo_merge_budget);
  EXPECT_EQ(decoded.dp_threads, PlannerKnobs{}.dp_threads);
}

TEST(ServerProtocol, KnobsRejectTheVersionOneLayout) {
  // Version 1 carried goo_merge_budget and dp_threads after idp_inner. A
  // client still sending that layout is refused, not mis-parsed.
  std::string v1;
  AppendKnobs(&v1, PlannerKnobs{});
  v1[0] = 1;
  v1.push_back(1);  // zigzag(-1): goo_merge_budget
  v1.push_back(2);  // zigzag(1): dp_threads
  BinReader reader(v1);
  PlannerKnobs sink;
  EXPECT_FALSE(ReadKnobs(&reader, &sink));

  // The same block behind a length-prefixed session name "s".
  OpenSessionRequest decoded;
  EXPECT_FALSE(DecodeOpenSession("\x01s" + v1, &decoded));
}

TEST(ServerProtocol, KnobsRejectHostileValues) {
  auto reject = [](auto&& mutate) {
    PlannerKnobs knobs;
    std::string bytes;
    AppendKnobs(&bytes, knobs);
    mutate(&bytes);
    BinReader reader(bytes);
    PlannerKnobs sink;
    sink.dp_threads = -123;  // canary: untouched on failure
    EXPECT_FALSE(ReadKnobs(&reader, &sink));
    EXPECT_EQ(sink.dp_threads, -123);
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

}  // namespace
}  // namespace eadp
