#include "layers.h"

#include <cstdio>
#include <optional>

#include "conflict/conflict_detector.h"
#include "cost/recost.h"
#include "hypergraph/dphyp_enumerator.h"
#include "plangen/plan_explain.h"
#include "plangen/plan_serde.h"
#include "plangen/session.h"

namespace perfbench {

namespace {

double UsBetween(int64_t a_ns, int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) / 1e3;
}

}  // namespace

void ReplayServing(const ReplayInput& in, ServeStack* mirror,
                   LayerLog* log) {
  Tracer& t = log->tracer;
  const eadp::Query& q = *in.query;
  eadp::PlanCacheSplitKey key;
  {
    ScopedSpan s(&t, "queries.fingerprint", in.parent, in.request);
    key = eadp::PlanCacheKeySplit(q, DefaultKnobs());
  }
  {
    ScopedSpan s(&t, "plan_cache.lookup", in.parent, in.request);
    eadp::PlanCache::Handle h =
        mirror->service->plan_cache()->Lookup(key.structural);
  }
  if (eadp::PersistentPlanCache* l2 = mirror->service->persistent_cache()) {
    ScopedSpan s(&t, "persistent_cache.get", in.parent, in.request);
    eadp::OptimizeResult r;
    l2->Get(key.structural, nullptr, &r);
  }
  if (in.result->plan != nullptr) {
    ScopedSpan s(&t, "cost.recost", in.parent, in.request);
    eadp::RecostPlan(in.result->plan, q);
  }
  if (in.is_set_stats) {
    ScopedSpan s(&t, "server.setstats", in.parent, in.request);
    mirror->service->SetStats(in.set_stats);
  }

  // The four server-side steps of a served exchange, each timed on its
  // own so the transport is what the roundtrip leaves over.
  int64_t a = NowNs();
  eadp::OptimizeResult served;
  mirror->service->Optimize(kSession, in.entry->spec, &served);
  int64_t b = NowNs();
  t.Add("server.service", a, b, in.parent, in.request);
  double service_us = UsBetween(a, b);

  a = NowNs();
  std::string blob = eadp::EncodePlan(*in.result);
  b = NowNs();
  t.Add("plan_serde.encode", a, b, in.parent, in.request);
  double encode_us = UsBetween(a, b);
  log->blob_bytes.push_back(static_cast<double>(blob.size()));

  {
    ScopedSpan s(&t, "plan_serde.decode", in.parent, in.request);
    eadp::OptimizeResult r;
    eadp::DecodePlan(blob, &r);
  }

  a = NowNs();
  std::string stats_json = eadp::OptimizeStatsToJson(in.result->stats);
  b = NowNs();
  t.Add("plan_explain.stats_json", a, b, in.parent, in.request);
  double json_us = UsBetween(a, b);

  // Both directions of one exchange: the request frame encoded and
  // decoded, then the two reply frames.
  a = NowNs();
  std::string wire;
  eadp::AppendFrame(&wire, eadp::Opcode::kOptimize,
                    eadp::EncodeOptimize({kSession, in.entry->spec}));
  eadp::Frame frame;
  size_t used = 0;
  eadp::DecodeFrame(wire, eadp::kMaxFrameBytes, &frame, &used);
  eadp::OptimizeRequest request;
  eadp::DecodeOptimize(frame.payload, &request);
  wire.clear();
  eadp::AppendFrame(&wire, eadp::Opcode::kPlanBlob, blob);
  eadp::AppendFrame(&wire, eadp::Opcode::kStatsJson, stats_json);
  std::string_view rest = wire;
  while (eadp::DecodeFrame(rest, eadp::kMaxFrameBytes, &frame, &used) ==
         eadp::DecodeStatus::kOk) {
    rest.remove_prefix(used);
  }
  b = NowNs();
  t.Add("server.frame_codec", a, b, in.parent, in.request);
  double codec_us = UsBetween(a, b);

  double roundtrip_us = in.roundtrip_us;
  if (roundtrip_us < 0 && mirror->client) {
    std::string reply, reply_stats, error;
    a = NowNs();
    ServeRequest(mirror->client.get(), in.entry->spec, &reply, &reply_stats,
                 &error);
    b = NowNs();
    t.Add("server.roundtrip", a, b, in.parent, in.request);
    roundtrip_us = UsBetween(a, b);
    log->response_bytes.push_back(
        static_cast<double>(ResponseBytes(reply, reply_stats)));
    // The service call above made this replay a warm hit; subtract the
    // service time of that same path, not of the request's own.
    a = NowNs();
    eadp::OptimizeResult again;
    mirror->service->Optimize(kSession, in.entry->spec, &again);
    b = NowNs();
    t.Add("server.service_warm", a, b, in.parent, in.request);
    service_us = UsBetween(a, b);
  }
  if (roundtrip_us >= 0) {
    log->roundtrip_us.push_back(roundtrip_us);
    log->service_us.push_back(service_us);
    log->encode_us.push_back(encode_us);
    log->json_us.push_back(json_us);
    log->codec_us.push_back(codec_us);
    log->transport_us.push_back(roundtrip_us - service_us - encode_us -
                                json_us - codec_us);
  }
}

void ReplayPlanner(const ReplayInput& in, double real_optimize_us,
                   LayerLog* log) {
  Tracer& t = log->tracer;
  const eadp::Query& q = *in.query;
  {
    ScopedSpan s(&t, "queries.materialize", in.parent, in.request);
    eadp::Query fresh = Materialize(in.entry->spec);
  }
  std::optional<eadp::ConflictDetector> detector;
  {
    ScopedSpan s(&t, "conflict.detect", in.parent, in.request);
    detector.emplace(q);
  }
  if (in.entry->num_relations <= kExactRelations) {
    ScopedSpan s(&t, "hypergraph.enumerate", in.parent, in.request);
    eadp::CountCsgCmpPairs(detector->hypergraph());
  }

  double optimize_us = real_optimize_us;
  uint64_t plans_built = in.result->stats.plans_built;
  if (optimize_us < 0) {
    const eadp::PlannerSession uncached;
    int64_t a = NowNs();
    eadp::OptimizeResult r = uncached.Optimize(q);
    int64_t b = NowNs();
    t.Add("plangen.optimize", a, b, in.parent, in.request);
    optimize_us = UsBetween(a, b);
    plans_built = r.stats.plans_built;
  }
  log->optimize_us.push_back(optimize_us);
  log->optimize_total_us += optimize_us;
  log->optimize_plans_built += plans_built;
  if (in.entry->num_relations > kExactRelations) {
    log->large_optimize_us.push_back(optimize_us);
    log->large_total_us += optimize_us;
    return;
  }
  int64_t a = NowNs();
  DphypCost(q);
  int64_t b = NowNs();
  t.Add("plangen.dphyp", a, b, in.parent, in.request);
  log->dphyp_us.push_back(UsBetween(a, b));
  log->ea_overhead_us.push_back(optimize_us - UsBetween(a, b));
}

void Counts::Add(const eadp::OptimizeResult& r, size_t blob_size) {
  ccps += r.stats.ccp_count;
  plans_built += r.stats.plans_built;
  pruned_candidates += r.stats.pruned_candidates;
  pruned_existing += r.stats.pruned_existing;
  table_plans += r.stats.table_plans;
  blob_bytes += blob_size;
  if (r.stats.cache_tier == 1) ++l1_hits;
  ++requests;
}

std::string Counts::Json() const {
  auto u = [](uint64_t v) { return std::to_string(v); };
  return "{\"requests\":" + u(requests) + ",\"ccps\":" + u(ccps) +
         ",\"plans_built\":" + u(plans_built) +
         ",\"pruned_candidates\":" + u(pruned_candidates) +
         ",\"pruned_existing\":" + u(pruned_existing) +
         ",\"table_plans\":" + u(table_plans) +
         ",\"blob_bytes\":" + u(blob_bytes) + ",\"l1_hits\":" + u(l1_hits) +
         "}";
}

std::string CountSpreadJson(const Counts& a, const Counts& b) {
  auto d = [](uint64_t x, uint64_t y) {
    return std::to_string(x > y ? x - y : y - x);
  };
  return "{\"ccps\":" + d(a.ccps, b.ccps) +
         ",\"plans_built\":" + d(a.plans_built, b.plans_built) +
         ",\"pruned_candidates\":" +
         d(a.pruned_candidates, b.pruned_candidates) +
         ",\"pruned_existing\":" + d(a.pruned_existing, b.pruned_existing) +
         ",\"table_plans\":" + d(a.table_plans, b.table_plans) +
         ",\"blob_bytes\":" + d(a.blob_bytes, b.blob_bytes) +
         ",\"l1_hits\":" + d(a.l1_hits, b.l1_hits) + "}";
}

CacheCounters ReadCacheCounters(ServeStack* stack) {
  CacheCounters c;
  if (stack == nullptr || !stack->service) return c;
  c.l1 = stack->service->plan_cache()->Snapshot();
  if (stack->service->persistent_cache()) {
    c.l2 = stack->service->persistent_cache()->Snapshot();
  }
  std::string json;
  stack->service->StatsJson("", &json);
  const std::string key = "\"rejected\":";
  size_t at = json.find(key);
  if (at != std::string::npos) {
    c.rejected = std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
  }
  return c;
}

std::vector<Metric> LayerMetrics(const LayerLog& log, const Counts& counts,
                                 const CacheCounters& before,
                                 const CacheCounters& after,
                                 double overhead_us) {
  auto self = log.tracer.SelfTimesUs();
  auto med = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : Median(it->second);
  };
  auto diff = [](uint64_t a, uint64_t b) {
    return static_cast<double>(b >= a ? b - a : 0);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  const double requests = count(counts.requests);
  const double l2_hits = diff(before.l2.hits, after.l2.hits);
  const double roundtrip = Median(log.roundtrip_us);
  const double transport = Median(log.transport_us);
  return {
      {"queries.materialize_us", med("queries.materialize"), "us"},
      {"queries.fingerprint_us", med("queries.fingerprint"), "us"},
      {"conflict.detect_us", med("conflict.detect"), "us"},
      {"hypergraph.ccp_count", count(counts.ccps), "count"},
      {"hypergraph.enumerate_us", med("hypergraph.enumerate"), "us"},
      {"plangen.optimize_us", Median(log.optimize_us), "us"},
      {"plangen.dphyp_us", Median(log.dphyp_us), "us"},
      {"plangen.ea_overhead_us", Median(log.ea_overhead_us), "us"},
      {"plangen.plans_built", count(counts.plans_built), "count"},
      {"plangen.pruned_candidates", count(counts.pruned_candidates), "count"},
      {"plangen.pruned_existing", count(counts.pruned_existing), "count"},
      {"plangen.table_plans", count(counts.table_plans), "count"},
      {"plangen.us_per_plan_built",
       ratio(log.optimize_total_us, count(log.optimize_plans_built)), "us"},
      {"plangen.large_query_share",
       ratio(log.large_total_us, log.optimize_total_us), "ratio"},
      {"plangen.large_query_us", Median(log.large_optimize_us), "us"},
      {"plan_cache.lookup_us", med("plan_cache.lookup"), "us"},
      {"plan_cache.hit_rate", ratio(count(counts.l1_hits), requests), "ratio"},
      {"plan_cache.evictions", diff(before.l1.evictions, after.l1.evictions),
       "count"},
      {"plan_cache.resident_bytes_per_entry",
       ratio(count(after.l1.resident_bytes), count(after.l1.entries)), "bytes"},
      {"plan_cache.drift_hits", diff(before.l1.drift_hits, after.l1.drift_hits),
       "count"},
      {"plan_cache.replans_avoided",
       diff(before.l1.replans_avoided, after.l1.replans_avoided), "count"},
      {"plan_cache.refreshes", diff(before.l1.refreshes, after.l1.refreshes),
       "count"},
      {"persistent_cache.get_us", med("persistent_cache.get"), "us"},
      {"persistent_cache.hit_rate",
       ratio(l2_hits, l2_hits + diff(before.l2.misses, after.l2.misses)),
       "ratio"},
      {"persistent_cache.pread_serves",
       diff(before.l2.pread_serves, after.l2.pread_serves), "count"},
      {"persistent_cache.mmap_serves",
       diff(before.l2.mmap_serves, after.l2.mmap_serves), "count"},
      {"persistent_cache.bytes_on_disk", count(after.l2.bytes_on_disk),
       "bytes"},
      {"plan_serde.encode_us", med("plan_serde.encode"), "us"},
      {"plan_serde.decode_us", med("plan_serde.decode"), "us"},
      {"plan_serde.blob_bytes", ratio(count(counts.blob_bytes), requests),
       "bytes"},
      {"plan_explain.stats_json_us", med("plan_explain.stats_json"), "us"},
      {"cost.recost_us", med("cost.recost"), "us"},
      {"server.service_us", med("server.service"), "us"},
      {"server.setstats_us", med("server.setstats"), "us"},
      {"server.frame_codec_us", Median(log.codec_us), "us"},
      {"server.transport_us", transport, "us"},
      {"server.response_bytes", Median(log.response_bytes), "bytes"},
      {"server.rejected", diff(before.rejected, after.rejected), "count"},
      {"server.roundtrip_us", roundtrip, "us"},
      // Medians do not add up; this is how far the five parts' medians are
      // from the roundtrip's.
      {"trace.residual_us",
       roundtrip - (transport + Median(log.service_us) +
                    Median(log.encode_us) + Median(log.json_us) +
                    Median(log.codec_us)),
       "us"},
      {"trace.unattributed_us", med("request"), "us"},
      {"trace.overhead_us", overhead_us, "us"},
  };
}

void PrintSelfTimeTable(const Tracer& tracer) {
  auto self = tracer.SelfTimesUs();
  double total = 0;
  for (const auto& [name, v] : self) {
    for (double x : v) total += x;
  }
  std::printf("%-26s %9s %12s %12s %7s\n", "span", "calls", "self_med_us",
              "self_sum_ms", "share");
  for (const auto& [name, v] : self) {
    double sum = 0;
    for (double x : v) sum += x;
    std::printf("%-26s %9zu %12.2f %12.2f %6.2f%%\n", name.c_str(), v.size(),
                Median(v), sum / 1e3, total > 0 ? 100 * sum / total : 0.0);
  }
}

}  // namespace perfbench
