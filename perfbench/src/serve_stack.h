// The serving stack a benchmark run drives: an OptimizerService, optionally
// behind an in-process loopback PlanServer with one client connection.

#ifndef PERFBENCH_SERVE_STACK_H_
#define PERFBENCH_SERVE_STACK_H_

#include <memory>
#include <string>

#include "algebra/query.h"
#include "plangen/plangen.h"
#include "server/client.h"
#include "server/optimizer_service.h"
#include "server/plan_server.h"

namespace perfbench {

struct ServeStack {
  ServeStack() = default;
  ~ServeStack() { Stop(); }
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  /// (Re)starts the service with session kSession open; with_server adds
  /// the loopback server and connects the client.
  bool Start(const eadp::ServiceOptions& options, bool with_server,
             std::string* error);
  /// Client, then server (joined), then service (drains L2 write-behind).
  void Stop();

  std::unique_ptr<eadp::OptimizerService> service;
  std::unique_ptr<eadp::PlanServer> server;
  std::unique_ptr<eadp::ClientConnection> client;
};

/// One Optimize exchange on the raw frame layer, so the timed part is the
/// exchange alone: the blob is decoded later, outside the latency sample.
bool ServeRequest(eadp::ClientConnection* client, const std::string& spec,
                  std::string* blob, std::string* stats_json,
                  std::string* error);

/// Bytes of the two reply frames on the wire.
size_t ResponseBytes(const std::string& blob, const std::string& stats_json);

/// The plan blob carries the run's counters but not the drift-serving
/// outcome (replan_avoided, recosted_cost); those come from the stats JSON
/// frame sent with it.
void ReadDriftOutcome(const std::string& stats_json,
                      eadp::OptimizeStats* stats);

/// Mirrors OptimizerService::SetStats on a client-side copy of the query:
/// key attributes track the new cardinality, non-key distincts are capped.
void ApplySetStats(eadp::Query* q, int relation, double cardinality);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_STACK_H_
