// Seeded Zipf load generator against a live plan server.
//
// N connections, each its own session (named "s<i>") over its own shape
// working set — shape seeds are disjoint across connections (seed
// 5000 + 1000*conn + shape), so any cross-session cache serve would show
// up as a plan for a query the session never asked about. The generator
// verifies exactly that: every served blob is decoded and its root cost
// compared bit-for-bit against a local uncached adaptive-facade run of
// the same spec line under the same knobs; `cost_mismatches` stays 0 on a
// correct server (acceptance-gated in bench_server).
//
// The shape mix mirrors bench_plan_cache so the warm hit-rate numbers are
// comparable tier for tier: mostly small random trees (5–10 relations)
// with a chain-16 and a star-24 salted in every 8 shapes, popularity
// Zipf(theta)-distributed over the shapes. Each connection runs one cold
// pass (every shape once — cache fill + cost verification) and then the
// measured warm pass; reported latency/throughput covers only the warm
// pass, with all connections driving concurrently between two barriers.

#ifndef EADP_SERVER_LOAD_CLIENT_H_
#define EADP_SERVER_LOAD_CLIENT_H_

#include <cstdint>
#include <string>

#include "plangen/plangen.h"

namespace eadp {

struct LoadOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  int connections = 8;
  /// Warm-pass queries per connection.
  int queries_per_connection = 500;
  /// Shapes per connection's working set.
  int shapes = 64;
  double zipf_theta = 1.0;
  uint64_t seed = 42;
  PlannerKnobs knobs;
  /// Re-plan every shape locally (uncached) and compare served costs
  /// bit-for-bit. Costs one local optimization per shape per connection.
  bool verify_costs = true;
};

struct LoadReport {
  int connections = 0;
  uint64_t queries = 0;     ///< warm-pass queries completed
  uint64_t hits = 0;        ///< warm-pass serves with stats cache_hit
  uint64_t errors = 0;      ///< failed exchanges (any pass)
  uint64_t cost_mismatches = 0;  ///< served cost != local reference cost
  double p50_ms = 0;        ///< warm-pass per-query latency percentiles
  double p99_ms = 0;
  double qps = 0;           ///< aggregate warm-pass throughput
  double wall_ms = 0;       ///< warm-pass wall clock
  double hit_rate = 0;      ///< hits / queries

  std::string ToJson() const;
};

/// Runs the full load shape described above. `ok` is false when setup
/// failed outright (no connection could be established).
LoadReport RunLoad(const LoadOptions& options, bool* ok = nullptr);

/// One-shot replay: opens a throwaway session, plans `spec_line` once,
/// prints the server's stats JSON to stdout. The scripts/fuzz.sh bridge —
/// a fuzz reproducer line replays against a live server unchanged.
/// Returns false on connection/protocol/plan failure.
bool RunReplay(const std::string& host, int port,
               const std::string& spec_line);

/// The deterministic spec line connection `conn` uses for `shape` (shared
/// with bench_server and the isolation tests).
std::string LoadSpecLine(int conn, int shape);

}  // namespace eadp

#endif  // EADP_SERVER_LOAD_CLIENT_H_
