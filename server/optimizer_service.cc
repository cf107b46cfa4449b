#include "server/optimizer_service.h"

#include <algorithm>
#include <utility>

#include "common/bitset.h"
#include "common/rng.h"
#include "queries/mutation.h"

namespace eadp {

OptimizerService::OptimizerService(const ServiceOptions& options)
    : options_(options),
      plan_cache_(std::make_unique<PlanCache>(PlanCacheOptions{
          .capacity = options.cache_capacity > 0 ? options.cache_capacity
                                                 : size_t{1},
      })),
      pool_(options.pool_threads) {
  if (!options_.persistent_dir.empty()) {
    PersistentCacheOptions pc;
    pc.directory = options_.persistent_dir;
    // A service that cannot open its disk tier still serves from memory —
    // degraded, not dead (the tier is a cache, not the source of truth).
    persistent_cache_ = PersistentPlanCache::Open(pc);
  }
  if (options_.replan_threads > 0) {
    replan_pool_ = std::make_unique<ThreadPool>(options_.replan_threads);
  }
}

OptimizerService::~OptimizerService() = default;

ServiceStatus OptimizerService::OpenSession(const std::string& name,
                                            const PlannerKnobs& knobs) {
  auto state = std::make_shared<SessionState>();
  PlannerContext context;
  context.plan_cache = plan_cache_.get();
  context.persistent_cache = persistent_cache_.get();
  context.drift_tolerance = options_.drift_tolerance;
  context.replan_pool = replan_pool_.get();
  // dp_pool stays null: the request pool runs whole optimizations, and
  // nesting DP workers onto it could deadlock a full pool against itself.
  // Sessions opened over the wire always plan with dp_threads = 1
  // (protocol.h); an in-process dp_threads > 1 session spins transient
  // pools per run instead.
  state->planner = PlannerSession(knobs, context);

  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = sessions_.emplace(name, std::move(state));
  (void)it;
  if (!inserted) {
    return ServiceStatus::Error(ErrorCode::kSessionExists,
                                "session already open: " + name);
  }
  return ServiceStatus::Ok();
}

ServiceStatus OptimizerService::CloseSession(const std::string& name) {
  std::shared_ptr<SessionState> victim;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(name);
    if (it == sessions_.end()) {
      return ServiceStatus::Error(ErrorCode::kNoSuchSession,
                                  "no such session: " + name);
    }
    victim = std::move(it->second);
    sessions_.erase(it);
  }
  // An in-flight Optimize may still hold the state via its shared_ptr;
  // the state dies when the last holder releases it.
  std::lock_guard<std::mutex> lock(victim->mu);
  return ServiceStatus::Ok();
}

std::shared_ptr<OptimizerService::SessionState> OptimizerService::Find(
    const std::string& name, ServiceStatus* status) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    *status = ServiceStatus::Error(ErrorCode::kNoSuchSession,
                                   "no such session: " + name);
    return nullptr;
  }
  return it->second;
}

Query* OptimizerService::MaterializeLocked(SessionState* state,
                                           const std::string& spec_line,
                                           ServiceStatus* status) {
  auto it = state->queries.find(spec_line);
  if (it != state->queries.end()) return &it->second;

  CorpusEntry entry;
  std::string error;
  if (!ParseCorpusEntry(spec_line, &entry, &error)) {
    *status = ServiceStatus::Error(
        ErrorCode::kBadRequest,
        error.empty() ? "blank/comment line is not a query" : error);
    return nullptr;
  }
  if (entry.seed.kind == "gen" &&
      (entry.seed.num_relations < 2 ||
       entry.seed.num_relations > options_.max_relations)) {
    *status = ServiceStatus::Error(
        ErrorCode::kBadRequest,
        "num_relations out of bounds: " +
            std::to_string(entry.seed.num_relations));
    return nullptr;
  }

  Query query = MaterializeSeed(entry.seed);
  if (!entry.chain.empty()) {
    QuerySpec spec = QuerySpec::FromQuery(query);
    // Deliberately NOT MutationEngine::Replay: that contract aborts on a
    // non-applying step (its chains come from Step() and always apply),
    // while a wire client can send any chain — a bad one must be an error
    // frame, not a dead server.
    for (const MutationStep& step : entry.chain) {
      Rng rng(step.seed);
      if (!ApplyMutation(step.op, &spec, &rng)) {
        *status = ServiceStatus::Error(
            ErrorCode::kBadRequest,
            std::string("mutation step does not apply: ") +
                MutationOpName(step.op) + ":" + std::to_string(step.seed));
        return nullptr;
      }
    }
    query = spec.ToQuery();
  }
  auto [ins, inserted] = state->queries.emplace(spec_line, std::move(query));
  (void)inserted;
  return &ins->second;
}

ServiceStatus OptimizerService::SetStats(const SetStatsRequest& req) {
  ServiceStatus status;
  std::shared_ptr<SessionState> state = Find(req.session, &status);
  if (!state) return status;

  std::lock_guard<std::mutex> lock(state->mu);
  Query* query = MaterializeLocked(state.get(), req.spec_line, &status);
  if (!query) return status;

  Catalog* catalog = query->mutable_catalog();
  // Unsigned compare: the wire carries any varint32, and an index of 2^31
  // or more would turn negative as an int and slip past the check.
  if (req.relation >= static_cast<uint32_t>(catalog->num_relations())) {
    return ServiceStatus::Error(
        ErrorCode::kBadRequest,
        "relation index out of range: " + std::to_string(req.relation));
  }
  int r = static_cast<int>(req.relation);
  double card = std::max(1.0, std::floor(req.cardinality));
  const RelationDef& rel = catalog->relation(r);
  // The ApplyStatsDrift repair rule: key attributes track the new
  // cardinality exactly, non-key distincts are capped at it.
  AttrSet key_attrs;
  for (const AttrSet& key : rel.keys) key_attrs.UnionWith(key);
  catalog->SetCardinality(r, card);
  for (int a : BitsOf(rel.attributes)) {
    double distinct = key_attrs.Contains(a)
                          ? card
                          : std::min(catalog->DistinctOf(a), card);
    catalog->SetDistinct(a, distinct);
  }
  ++state->stats_overrides;
  return ServiceStatus::Ok();
}

ServiceStatus OptimizerService::Optimize(const std::string& session,
                                         const std::string& spec_line,
                                         OptimizeResult* out) {
  ServiceStatus status;
  std::shared_ptr<SessionState> state = Find(session, &status);
  if (!state) return status;

  std::lock_guard<std::mutex> lock(state->mu);
  Query* query = MaterializeLocked(state.get(), spec_line, &status);
  if (!query) return status;

  try {
    *out = state->planner.Optimize(*query);
  } catch (const std::exception& e) {
    return ServiceStatus::Error(ErrorCode::kPlanFailed, e.what());
  }
  ++state->optimizes;
  if (out->stats.cache_hit) ++state->cache_hits;
  total_optimizes_.fetch_add(1, std::memory_order_relaxed);
  return ServiceStatus::Ok();
}

void OptimizerService::InvalidateCache() { plan_cache_->Invalidate(); }

namespace {

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out->push_back(' ');
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

ServiceStatus OptimizerService::StatsJson(const std::string& session,
                                          std::string* out) {
  if (session.empty()) {
    std::string json = "{\"sessions\":" + std::to_string(session_count()) +
                       ",\"inflight\":" + std::to_string(inflight()) +
                       ",\"optimizes\":" +
                       std::to_string(
                           total_optimizes_.load(std::memory_order_relaxed)) +
                       ",\"rejected\":" +
                       std::to_string(
                           total_rejected_.load(std::memory_order_relaxed)) +
                       ",\"cache\":" +
                       CacheTierStatsToJson(plan_cache_.get(),
                                            persistent_cache_.get()) +
                       "}";
    *out = std::move(json);
    return ServiceStatus::Ok();
  }
  ServiceStatus status;
  std::shared_ptr<SessionState> state = Find(session, &status);
  if (!state) return status;
  std::lock_guard<std::mutex> lock(state->mu);
  std::string json = "{\"session\":";
  AppendJsonString(&json, session);
  json += ",\"optimizes\":" + std::to_string(state->optimizes) +
          ",\"cache_hits\":" + std::to_string(state->cache_hits) +
          ",\"stats_overrides\":" + std::to_string(state->stats_overrides) +
          ",\"queries_materialized\":" +
          std::to_string(state->queries.size()) + "}";
  *out = std::move(json);
  return ServiceStatus::Ok();
}

bool OptimizerService::TryAdmit() {
  int cur = inflight_.load(std::memory_order_relaxed);
  while (cur < options_.max_inflight) {
    if (inflight_.compare_exchange_weak(cur, cur + 1,
                                        std::memory_order_acq_rel)) {
      return true;
    }
  }
  total_rejected_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void OptimizerService::Release() {
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
}

size_t OptimizerService::session_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace eadp
