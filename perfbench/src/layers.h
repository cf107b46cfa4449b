// Per-layer measurement for traced runs: every request is replayed through
// the public layer functions, each call a child span of the request span,
// and the spans and counters are folded into the per-layer metrics
// (BENCHMARK.json "per_layer").

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/query.h"
#include "plangen/persistent_cache.h"
#include "plangen/plan_cache.h"
#include "plangen/plangen.h"
#include "server/protocol.h"

#include "common.h"
#include "corpus.h"
#include "serve_stack.h"
#include "trace.h"

namespace perfbench {

/// Spans plus the per-request values that need pairing across spans.
struct LayerLog {
  Tracer tracer;
  // One entry per served exchange, same index across the vectors; the
  // service time is the one on the exchange's own cache path.
  std::vector<double> roundtrip_us, service_us, encode_us, json_us, codec_us,
      transport_us;
  std::vector<double> response_bytes;
  // One entry per replayed (or real) planning call.
  std::vector<double> optimize_us, dphyp_us, ea_overhead_us, large_optimize_us;
  double optimize_total_us = 0;
  double large_total_us = 0;
  uint64_t optimize_plans_built = 0;
  std::vector<double> blob_bytes;
};

/// Everything a replay needs about one request.
struct ReplayInput {
  uint32_t request = 0;
  int parent = -1;  ///< the request span
  const CorpusEntry* entry = nullptr;
  const eadp::Query* query = nullptr;            ///< under current statistics
  const eadp::OptimizeResult* result = nullptr;  ///< what the real path returned
  bool is_set_stats = false;
  eadp::SetStatsRequest set_stats;
  /// Client-observed roundtrip of the real request; < 0 when the real path
  /// does not go over a socket, and the replay sends the request through
  /// the mirror's server instead.
  double roundtrip_us = -1;
};

/// Replays the request through the serving layers: fingerprint, L1/L2
/// probes, recost, SetStats (is_set_stats), the service call, serde, stats
/// JSON, the frame codec and, when the real path has no socket, a loopback
/// roundtrip. `mirror` is a second service fed the same request sequence,
/// so stateful layers replay without touching the measured stack.
void ReplayServing(const ReplayInput& in, ServeStack* mirror, LayerLog* log);

/// Replays the planner layers on the request's query: materialization,
/// conflict detection, csg-cmp-pair enumeration, the facade's planning
/// call (unless `real_optimize_us` >= 0 already timed it on the real path)
/// and the DPhyp baseline.
void ReplayPlanner(const ReplayInput& in, double real_optimize_us,
                   LayerLog* log);

/// Counters of a fixed request window; they must repeat exactly at one
/// seed for plan_cold and serve_hot.
struct Counts {
  uint64_t ccps = 0, plans_built = 0, pruned_candidates = 0,
           pruned_existing = 0, table_plans = 0, blob_bytes = 0, l1_hits = 0,
           requests = 0;

  void Add(const eadp::OptimizeResult& r, size_t blob_size);
  bool operator==(const Counts&) const = default;
  std::string Json() const;
};

/// |a - b| per counter, as a JSON object.
std::string CountSpreadJson(const Counts& a, const Counts& b);

/// Cache and admission counters of a stack (zeros without one).
struct CacheCounters {
  eadp::PlanCacheStats l1;
  eadp::PersistentCacheStats l2;
  uint64_t rejected = 0;
};
CacheCounters ReadCacheCounters(ServeStack* stack);

/// The per-layer metrics, identical in name and order for every workload.
/// Cache counters are the difference `after` - `before` of the measured
/// stack. A serving layer a serve workload's real path does not use
/// reports its replayed cost and zero counts; plan_cold replays no
/// serving layer, so those rows read 0 there.
std::vector<Metric> LayerMetrics(const LayerLog& log, const Counts& counts,
                                 const CacheCounters& before,
                                 const CacheCounters& after,
                                 double overhead_us);

/// Per-span-name self time: calls, median, sum and share (stdout).
void PrintSelfTimeTable(const Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
