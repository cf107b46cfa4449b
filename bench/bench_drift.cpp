// Serving under statistics drift (DESIGN.md §14): a seeded 1000-query
// Zipf stream over a pool of shapes whose catalog statistics drift gently
// (~3% of arrivals perturb the arriving shape's cardinalities), planned
// through the drift-aware cache in two modes over the *identical* stream:
//
//   strict   — drift_tolerance 0: every drifted hit re-plans inline (the
//              stats-keyed baseline behavior);
//   tolerant — drift_tolerance 0.5: drifted hits are re-costed
//              (cost/recost.h) and served when within the band of the
//              sensitivity lower bound, so most full re-plans never run.
//
// Reported per mode: p50/p95 per-query latency, drifted hits, full
// re-plans (cache refreshes) and re-plans avoided; the headline is the
// avoided fraction — the bench hard-fails below 70% — and the re-plan
// ratio tolerant/strict. A determinism guard forces a strict end-of-stream
// probe of every shape in both modes and requires bit-identical costs:
// serving within the band must not degrade final plan quality.
//
// Machine-readable records (EADP_BENCH_JSON, bench_util.h): per mode
// p50 latency, re-plan and drift counters, plus the avoided fraction,
// folded into BENCH_results.json by scripts/bench.sh.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "plangen/plan_cache.h"
#include "plangen/session.h"
#include "queries/mutation.h"

using namespace eadp;

namespace {

constexpr int kStreamLength = 1000;
constexpr int kShapes = 24;
constexpr double kDriftProbability = 0.03;

/// One stream arrival: shape rank, plus the seed of its drift draw (0 =
/// no drift). Pre-materialized so both modes replay the identical stream,
/// including identical catalog perturbations.
struct Event {
  int shape = 0;
  uint64_t drift_seed = 0;
};

/// Gentle drift (same operator as tests/drift_test.cpp): one relation's
/// cardinality scaled by a few percent, distinct counts repaired to stay
/// consistent (keys keep distinct == cardinality).
void DriftGently(Catalog* catalog, Rng* rng) {
  int r = static_cast<int>(rng->UniformInt(0, catalog->num_relations() - 1));
  const RelationDef& rel = catalog->relation(r);
  double card =
      std::max(2.0, rel.cardinality * rng->UniformDouble(0.96, 1.04));
  if (card == rel.cardinality) card += 1.0;
  AttrSet key_attrs;
  for (const AttrSet& key : rel.keys) key_attrs.UnionWith(key);
  catalog->SetCardinality(r, card);
  for (int a : BitsOf(rel.attributes)) {
    double distinct = key_attrs.Contains(a)
                          ? card
                          : std::min(catalog->DistinctOf(a), card);
    catalog->SetDistinct(a, distinct);
  }
}

std::vector<QuerySpec> ShapePool() {
  std::vector<QuerySpec> specs;
  for (int s = 0; s < kShapes; ++s) {
    GeneratorOptions gen;
    gen.num_relations = 5 + s % 4;
    specs.push_back(QuerySpec::FromQuery(
        GenerateRandomQuery(gen, 9000 + static_cast<uint64_t>(s))));
  }
  return specs;
}

/// Zipf(1.1) stream with per-event drift seeds, identical across modes.
std::vector<Event> DriftingStream() {
  std::vector<double> weights(kShapes);
  for (int s = 0; s < kShapes; ++s) {
    weights[static_cast<size_t>(s)] = 1.0 / std::pow(s + 1.0, 1.1);
  }
  Rng rng(77);
  std::vector<Event> stream(kStreamLength);
  for (Event& e : stream) {
    e.shape = rng.PickWeighted(weights.data(), kShapes);
    e.drift_seed = rng.Bernoulli(kDriftProbability) ? rng.Next() | 1 : 0;
  }
  return stream;
}

struct ModeRun {
  std::vector<double> latency_ms;
  PlanCacheStats stats;
  std::vector<double> final_costs;  ///< strict end-of-stream probe per shape
};

ModeRun RunMode(const std::vector<Event>& stream, double tolerance) {
  std::vector<QuerySpec> specs = ShapePool();  // fresh replicas per mode
  PlanCache cache;
  OptimizerOptions options;
  options.plan_cache = &cache;
  options.drift_tolerance = tolerance;

  ModeRun run;
  run.latency_ms.reserve(stream.size());
  for (const Event& e : stream) {
    QuerySpec& spec = specs[static_cast<size_t>(e.shape)];
    if (e.drift_seed != 0) {
      Rng drift_rng(e.drift_seed);
      DriftGently(&spec.catalog, &drift_rng);
    }
    Query q = spec.ToQuery();
    auto t0 = std::chrono::steady_clock::now();
    OptimizeResult r = PlannerSession(options).Optimize(q);
    auto t1 = std::chrono::steady_clock::now();
    if (r.plan == nullptr) {
      std::fprintf(stderr, "FATAL: no plan for shape %d\n", e.shape);
      std::exit(1);
    }
    run.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  run.stats = cache.Snapshot();

  // End-of-stream quality: force a strict re-plan of every shape under
  // its final statistics.
  OptimizerOptions strict = options;
  strict.drift_tolerance = 0;
  for (QuerySpec& spec : specs) {
    OptimizeResult r = PlannerSession(strict).Optimize(spec.ToQuery());
    run.final_costs.push_back(r.plan ? r.plan->cost : -1);
  }
  return run;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

}  // namespace

int main(int argc, char** argv) {
  int reps = BenchQueries(argc, argv, 3);
  BenchJsonWriter json("drift");

  std::vector<Event> stream = DriftingStream();
  int drift_events = 0;
  for (const Event& e : stream) drift_events += e.drift_seed != 0 ? 1 : 0;
  std::printf("drift serving: %d-query Zipf stream over %d shapes, "
              "%d drift events, median over %d runs\n",
              kStreamLength, kShapes, drift_events, reps);

  const char* names[2] = {"strict", "tolerant"};
  const double tolerances[2] = {0.0, 0.5};
  double p50[2] = {0, 0};
  PlanCacheStats stats[2];
  std::vector<double> final_costs[2];
  for (int m = 0; m < 2; ++m) {
    std::vector<double> p50s, p95s;
    ModeRun last;
    for (int rep = 0; rep < reps; ++rep) {
      last = RunMode(stream, tolerances[m]);
      p50s.push_back(Percentile(last.latency_ms, 0.5));
      p95s.push_back(Percentile(last.latency_ms, 0.95));
    }
    p50[m] = Median(p50s);
    stats[m] = last.stats;  // counters are deterministic across reps
    final_costs[m] = last.final_costs;
    std::printf("  %-8s p50 %.4f ms  p95 %.4f ms  drifted hits %llu  "
                "replans %llu  avoided %llu\n",
                names[m], p50[m], Median(p95s),
                static_cast<unsigned long long>(stats[m].drift_hits),
                static_cast<unsigned long long>(stats[m].refreshes),
                static_cast<unsigned long long>(stats[m].replans_avoided));
    std::string prefix = std::string("drift1000/mode=") + names[m];
    json.RecordMs(prefix + "/p50", p50[m]);
    json.RecordValue(prefix + "/drift_hits",
                     static_cast<double>(stats[m].drift_hits));
    json.RecordValue(prefix + "/replans",
                     static_cast<double>(stats[m].refreshes));
  }

  // Equal final quality: strict end-of-stream probes must agree bit for
  // bit across modes (the shapes saw identical drift in both runs).
  for (int s = 0; s < kShapes; ++s) {
    if (final_costs[0][static_cast<size_t>(s)] !=
        final_costs[1][static_cast<size_t>(s)]) {
      std::fprintf(stderr,
                   "FATAL: shape %d final cost %.17g (strict) != %.17g "
                   "(tolerant)\n",
                   s, final_costs[0][static_cast<size_t>(s)],
                   final_costs[1][static_cast<size_t>(s)]);
      return 1;
    }
  }

  double avoided_fraction =
      stats[1].drift_hits == 0
          ? 0
          : static_cast<double>(stats[1].replans_avoided) /
                static_cast<double>(stats[1].drift_hits);
  double replan_ratio =
      stats[0].refreshes == 0
          ? 0
          : static_cast<double>(stats[1].refreshes) /
                static_cast<double>(stats[0].refreshes);
  std::printf("\nre-plans avoided (tolerant): %.1f%% of %llu drifted hits; "
              "full re-plans tolerant/strict: %.2f\n",
              100 * avoided_fraction,
              static_cast<unsigned long long>(stats[1].drift_hits),
              replan_ratio);
  json.RecordValue("drift1000/avoided_fraction", avoided_fraction);
  json.RecordValue("drift1000/replan_ratio", replan_ratio);
  if (avoided_fraction < 0.7) {
    std::fprintf(stderr, "FATAL: avoided fraction %.2f < 0.7\n",
                 avoided_fraction);
    return 1;
  }
  return 0;
}
