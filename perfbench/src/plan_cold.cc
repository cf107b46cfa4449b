// plan_cold: conflict detection, the hypergraph, DP combine/prune and
// GOO/IDP do all the work; caches, serde and the server do none.

#include <cmath>
#include <string>
#include <vector>

#include "exec/plan_executor.h"
#include "plangen/plan_validator.h"
#include "plangen/session.h"
#include "queries/data_generator.h"
#include "queries/tpch.h"

#include "layers.h"
#include "workloads.h"

namespace perfbench {

namespace {

using eadp::OptimizeResult;
using eadp::Query;

constexpr int kSetupReps = 5;
constexpr size_t kWarmupStride = 8;  // warm-up: every 8th corpus query
constexpr int kMinPasses = 3;

double CostOf(const OptimizeResult& r) { return r.plan ? r.plan->cost : -1; }

/// Untimed checks of one corpus query against independent references.
/// `timed_cost` is what every timed pass returned. Adds the query's
/// log(cost / DPhyp cost) to the ratio sums when it has a reference.
bool Verify(const CorpusEntry& e, const Query& q, double timed_cost,
            uint64_t seed, double* ratio_log_sum, uint64_t* ratio_n,
            Outcome* out) {
  OptimizeResult r = eadp::PlannerSession().Optimize(q);
  if (r.plan == nullptr || !SameBits(r.plan->cost, timed_cost)) {
    out->Fail("re-plan cost differs: " + e.spec);
    return false;
  }
  std::vector<std::string> problems = eadp::ValidatePlan(r.plan, q);
  if (!problems.empty()) {
    out->Fail("ValidatePlan: " + e.spec + ": " + problems.front());
    return false;
  }
  if (e.num_relations <= kExactRelations) {
    // The facade routes these to exact EA-Prune: the same cost as calling
    // the generator directly, and never above the lazy DPhyp plan.
    eadp::OptimizerOptions prune;
    prune.algorithm = eadp::Algorithm::kEaPrune;
    if (!SameBits(CostOf(eadp::Optimize(q, prune)), r.plan->cost)) {
      out->Fail("cost differs from the EA-Prune reference: " + e.spec);
      return false;
    }
  }
  if (HasDphypReference(e)) {
    double lazy = DphypCost(q);
    if (lazy > 0) {
      if (e.num_relations <= kExactRelations &&
          r.plan->cost > lazy * (1 + 1e-9)) {
        out->Fail("eager-aggregation plan costlier than DPhyp: " + e.spec);
        return false;
      }
      *ratio_log_sum += std::log(r.plan->cost / lazy);
      ++*ratio_n;
    }
  }
  if (e.tpch || e.num_relations <= 8) {
    eadp::Database db = e.tpch ? eadp::MakeTpchMiniDatabase(q, 2e-4, seed)
                               : eadp::GenerateDatabase(q, seed);
    if (!eadp::Table::BagEquals(eadp::ExecutePlan(r.plan, q, db),
                                eadp::ExecuteCanonical(q, db))) {
      out->Fail("executed rows differ from ExecuteCanonical: " + e.spec);
      return false;
    }
  }
  return true;
}

}  // namespace

Outcome RunPlanCold(const Args& args) {
  Outcome out;
  // The corpus in pass order; the warm-up takes every 8th query in
  // generation order, a sample of every stratum.
  const std::vector<CorpusEntry> generated = PlanColdCorpus();
  std::vector<CorpusEntry> corpus;
  std::vector<bool> warmup;
  for (size_t g : PassOrder(generated.size(), args.seed)) {
    corpus.push_back(generated[g]);
    warmup.push_back(g % kWarmupStride == 0);
  }
  const eadp::PlannerSession session;  // default knobs, no cache, no pools

  // Set-up: corpus materialization plus the warm-up pass.
  std::vector<double> setup_s;
  std::vector<Query> queries;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    Clock::time_point t0 = Clock::now();
    queries.clear();
    for (const CorpusEntry& e : corpus) queries.push_back(Materialize(e.spec));
    for (size_t i = 0; i < queries.size(); ++i) {
      if (warmup[i]) session.Optimize(queries[i]);
    }
    setup_s.push_back(Seconds(t0, Clock::now()));
  }
  // The costs of the first timed pass; every later pass must repeat them.
  std::vector<double> first_cost(corpus.size(), 0);

  if (!args.trace) {
    // Whole passes only, so each query contributes equally and the p99
    // lands on the same query rank in every run.
    std::vector<std::vector<double>> times_ms(queries.size());
    std::vector<uint64_t> mismatches(queries.size(), 0);
    std::vector<double> pass_peak_mb;
    int passes = 0;
    TakePeakRssMb();
    Clock::time_point start = Clock::now();
    for (; passes < kMinPasses || Seconds(start, Clock::now()) < args.seconds;
         ++passes) {
      for (size_t i = 0; i < queries.size(); ++i) {
        double a = ThreadCpuSeconds();
        OptimizeResult r = session.Optimize(queries[i]);
        times_ms[i].push_back((ThreadCpuSeconds() - a) * 1e3);
        ++out.attempted;
        if (passes == 0) {
          first_cost[i] = CostOf(r);
        } else if (!SameBits(CostOf(r), first_cost[i])) {
          ++mismatches[i];
          out.Fail("pass " + std::to_string(passes) +
                   " cost differs: " + corpus[i].spec);
        }
      }
      pass_peak_mb.push_back(TakePeakRssMb());
    }

    // Each query's time is its median over the passes (a burst of host
    // noise hits one pass of a query, not its median); the percentiles and
    // the rate are taken over those per-query medians.
    Timing timing;
    std::vector<double> per_query;
    double pass_ms = 0;
    for (const std::vector<double>& t : times_ms) {
      per_query.push_back(Median(t));
      pass_ms += per_query.back();
    }
    timing.qps = static_cast<double>(queries.size()) / (pass_ms / 1e3);
    timing.p50_ms = Percentile(per_query, 0.50);
    timing.p99_ms = Percentile(per_query, 0.99);
    std::vector<double> pass_qps(static_cast<size_t>(passes), 0.0);
    for (const std::vector<double>& t : times_ms) {
      for (size_t p = 0; p < t.size(); ++p) pass_qps[p] += t[p] / 1e3;
    }
    for (double& q : pass_qps) q = static_cast<double>(queries.size()) / q;
    timing.peak_rss_mb = Median(pass_peak_mb);
    timing.samples = out.attempted;
    timing.meta = ",\"passes\":" + std::to_string(passes) +
                  ",\"corpus\":" + std::to_string(corpus.size()) +
                  ",\"pass_qps\":" + JsonArray(pass_qps) +
                  ",\"pass_peak_rss_mb\":" + JsonArray(pass_peak_mb);

    double ratio_log_sum = 0;
    uint64_t ratio_n = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      // A query that fails a reference check fails in every pass.
      out.failed += Verify(corpus[i], queries[i], first_cost[i], args.seed,
                           &ratio_log_sum, &ratio_n, &out)
                        ? mismatches[i]
                        : static_cast<uint64_t>(passes);
    }
    EndToEnd(timing, ratio_log_sum, ratio_n, setup_s, &out);
    return out;
  }

  // Traced run: one untraced pass (the baseline the traced passes are
  // compared against, and the first count set), then traced passes with
  // every request replayed through the planner layers. No serving layer is
  // replayed: plan_cold's real path has none.
  Counts counts[2];
  std::vector<double> untraced_us;
  for (size_t i = 0; i < queries.size(); ++i) {
    int64_t a = NowNs();
    OptimizeResult r = session.Optimize(queries[i]);
    untraced_us.push_back(static_cast<double>(NowNs() - a) / 1e3);
    first_cost[i] = CostOf(r);
    counts[0].Add(r, 0);
  }

  LayerLog log;
  std::vector<double> traced_us;
  Clock::time_point start = Clock::now();
  uint32_t request = 0;
  for (int pass = 0; pass == 0 || Seconds(start, Clock::now()) < args.seconds;
       ++pass) {
    for (size_t i = 0; i < queries.size(); ++i, ++request) {
      int root = log.tracer.Begin("request", -1, request);
      int64_t a = NowNs();
      OptimizeResult r = session.Optimize(queries[i]);
      int64_t b = NowNs();
      log.tracer.Add("plangen.optimize", a, b, root, request);
      traced_us.push_back(static_cast<double>(b - a) / 1e3);
      ++out.attempted;
      if (!SameBits(CostOf(r), first_cost[i])) {
        ++out.failed;
        out.Fail("traced pass cost differs: " + corpus[i].spec);
      }
      ReplayInput in;
      in.request = request;
      in.parent = root;
      in.entry = &corpus[i];
      in.query = &queries[i];
      in.result = &r;
      ReplayPlanner(in, static_cast<double>(b - a) / 1e3, &log);
      if (pass == 0) counts[1].Add(r, 0);
      log.tracer.End(root);
    }
  }
  if (!(counts[0] == counts[1])) {
    out.Fail("per-layer counts differ between two passes: " +
             counts[0].Json() + " vs " + counts[1].Json());
  }
  out.metrics = LayerMetrics(log, counts[1], CacheCounters{}, CacheCounters{},
                             Median(traced_us) - Median(untraced_us));
  PrintSelfTimeTable(log.tracer);
  log.tracer.WriteJsonl(args.scratch + "/spans.jsonl");
  out.meta += ",\"counts\":" + counts[1].Json() +
              ",\"traced_requests\":" + std::to_string(request);
  return out;
}

}  // namespace perfbench
