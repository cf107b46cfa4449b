// PlanServer: the TCP daemon over OptimizerService (DESIGN.md §15).
//
// One blocking accept loop, one handler thread per connection, the frame
// protocol of server/protocol.h. The handler loop is deliberately dumb:
// decode a frame, dispatch to the service, write the reply — all policy
// (admission, session isolation, query materialization) lives in
// OptimizerService, so the transport is testable against hostile bytes
// without a planner in sight and the service is testable without sockets.
//
// Error containment, pinned by server_test's hostile-frame battery:
//   * a frame shorter than its header, failing its CRC, or carrying an
//     unknown opcode gets an error frame and the connection KEEPS serving
//     (the length prefix kept the stream in sync);
//   * an oversized length prefix gets an error frame and the connection
//     closes (the next frame's offset is untrusted);
//   * an undecodable request payload is kBadRequest, connection survives;
//   * planning requests admit against the service's in-flight bound
//     before touching the pool; refusal is kBackpressure, never a queue.
//
// Batch streaming: kOptimizeBatch answers with a (kPlanBlob, kStatsJson)
// pair per successfully planned line IN ORDER, a kError frame for a line
// that fails (the batch continues), and a final kBatchDone whose payload
// is the varint count of streamed pairs.
//
// Shutdown: a kShutdown frame replies kOk, stops the accept loop, and
// wakes every connection; Shutdown() does the same from the owning
// process. Both paths end with every handler joined, so destruction is
// deterministic. A long-running server does not accumulate threads: each
// accept first joins the handlers whose connections have ended. The
// listener can adopt a pre-bound fd (PlanServerOptions::adopted_listen_fd)
// — how the fork-based round-trip test hands a kernel-chosen port from
// parent to child.

#ifndef EADP_SERVER_PLAN_SERVER_H_
#define EADP_SERVER_PLAN_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "server/optimizer_service.h"
#include "server/protocol.h"

namespace eadp {

struct PlanServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the outcome from port().
  int port = 0;
  size_t max_frame_bytes = kMaxFrameBytes;
  /// >= 0 adopts this already-bound, already-listening socket instead of
  /// binding host:port (ownership transfers; the server closes it).
  int adopted_listen_fd = -1;
};

class PlanServer {
 public:
  PlanServer(OptimizerService* service, const PlanServerOptions& options);
  /// Shutdown() + join everything.
  ~PlanServer();

  PlanServer(const PlanServer&) = delete;
  PlanServer& operator=(const PlanServer&) = delete;

  /// Binds + listens (or adopts the configured fd). False with *error set
  /// on failure. After success port() is the actual bound port.
  bool Listen(std::string* error);

  /// Accept loop on the calling thread; returns once shutdown was
  /// requested (by Shutdown() or a kShutdown frame) and the loop drained.
  /// Requires Listen() first.
  void Serve();

  /// Listen() + Serve() on a background thread. False on listen failure.
  bool Start(std::string* error);

  /// Stops accepting, wakes and joins every connection handler (and the
  /// Serve thread if Start() spawned one). Idempotent; safe from any
  /// thread except a connection handler.
  void Shutdown();

  int port() const { return port_; }
  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  /// Handler threads not yet joined: live connections plus handlers that
  /// finished since the last accept.
  size_t handler_threads() const;

 private:
  /// Serves frames on `fd` until the peer leaves or a reply fails; the
  /// handler thread that called it then closes `fd`.
  void HandleConnection(int fd);
  /// Flags stop and wakes the accept loop (handler-safe: joins nothing).
  void RequestStop();
  /// One planning request: admit -> run on the service pool -> stream
  /// blob + stats (or an error frame). Returns 1 for a streamed
  /// (blob, stats) pair, 0 for an error frame the peer accepted, -1 when
  /// the peer stopped reading (the connection ends).
  int HandleOptimize(int fd, const std::string& session,
                     const std::string& spec_line);

  OptimizerService* service_;
  PlanServerOptions options_;

  std::atomic<bool> stop_{false};
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread serve_thread_;  ///< set by Start()

  struct Handler {
    std::thread thread;
    bool done = false;  ///< connection closed; the thread is exiting
  };

  mutable std::mutex conn_mu_;  ///< guards conn_fds_ and handlers_
  std::set<int> conn_fds_;
  std::list<Handler> handlers_;  ///< stable nodes: each thread marks its own

  std::atomic<uint64_t> connections_accepted_{0};
};

}  // namespace eadp

#endif  // EADP_SERVER_PLAN_SERVER_H_
