#include "serve_stack.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "common/bitset.h"
#include "server/protocol.h"

#include "common.h"

namespace perfbench {

bool ServeStack::Start(const eadp::ServiceOptions& options, bool with_server,
                       std::string* error) {
  Stop();
  service = std::make_unique<eadp::OptimizerService>(options);
  if (!service->OpenSession(kSession, DefaultKnobs()).ok()) {
    *error = "OpenSession failed";
    return false;
  }
  if (!with_server) return true;
  server = std::make_unique<eadp::PlanServer>(service.get(),
                                              eadp::PlanServerOptions{});
  if (!server->Start(error)) return false;
  client = eadp::ClientConnection::Connect("127.0.0.1", server->port(), error);
  return client != nullptr;
}

void ServeStack::Stop() {
  client.reset();
  if (server) server->Shutdown();
  server.reset();
  service.reset();
}

bool ServeRequest(eadp::ClientConnection* client, const std::string& spec,
                  std::string* blob, std::string* stats_json,
                  std::string* error) {
  if (!client->Send(eadp::Opcode::kOptimize,
                    eadp::EncodeOptimize({kSession, spec}))) {
    *error = "send failed";
    return false;
  }
  eadp::Frame frame;
  eadp::DecodeStatus decode = eadp::DecodeStatus::kOk;
  if (client->Recv(&frame, &decode) != eadp::ReadStatus::kOk ||
      decode != eadp::DecodeStatus::kOk) {
    *error = "blob frame read failed";
    return false;
  }
  if (frame.opcode != static_cast<uint8_t>(eadp::Opcode::kPlanBlob)) {
    eadp::ErrorResponse err;
    eadp::DecodeError(frame.payload, &err);
    *error = std::string("server error ") + eadp::ErrorCodeName(err.code) +
             ": " + err.message;
    return false;
  }
  *blob = std::move(frame.payload);
  if (client->Recv(&frame, &decode) != eadp::ReadStatus::kOk ||
      decode != eadp::DecodeStatus::kOk ||
      frame.opcode != static_cast<uint8_t>(eadp::Opcode::kStatsJson)) {
    *error = "stats frame read failed";
    return false;
  }
  *stats_json = std::move(frame.payload);
  return true;
}

size_t ResponseBytes(const std::string& blob, const std::string& stats_json) {
  return blob.size() + stats_json.size() + 2 * (4 + eadp::kFrameHeaderBytes);
}

void ReadDriftOutcome(const std::string& stats_json,
                      eadp::OptimizeStats* stats) {
  stats->replan_avoided =
      stats_json.find("\"replan_avoided\":true") != std::string::npos;
  const std::string key = "\"recosted_cost\":";
  size_t at = stats_json.find(key);
  stats->recosted_cost =
      at == std::string::npos
          ? 0
          : std::strtod(stats_json.c_str() + at + key.size(), nullptr);
}

void ApplySetStats(eadp::Query* q, int relation, double cardinality) {
  eadp::Catalog* catalog = q->mutable_catalog();
  double card = std::max(1.0, std::floor(cardinality));
  const eadp::RelationDef& rel = catalog->relation(relation);
  eadp::AttrSet key_attrs;
  for (const eadp::AttrSet& key : rel.keys) key_attrs.UnionWith(key);
  catalog->SetCardinality(relation, card);
  for (int a : eadp::BitsOf(rel.attributes)) {
    double distinct = key_attrs.Contains(a)
                          ? card
                          : std::min(catalog->DistinctOf(a), card);
    catalog->SetDistinct(a, distinct);
  }
}

}  // namespace perfbench
