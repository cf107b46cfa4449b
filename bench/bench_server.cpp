// Serving-tier throughput: an in-process PlanServer (loopback TCP, the
// full frame protocol end to end) driven by the seeded Zipf load
// generator at 1/4/8 concurrent connections. This is bench_plan_cache's
// serving scenario moved across a socket: each connection is a session
// with its own Zipf(1.0) working set, one cold pass fills the shared
// tiered cache, and the measured warm pass is steady-state traffic —
// p50/p99 per-query latency and aggregate qps per connection count.
//
// Two hard gates ride along (the bench fails, not just reports):
//   - warm hit rate >= 0.95: the server's warm-cache behaviour must stay
//     within 5 points of the in-process bench_plan_cache warm rate (~1.0);
//   - cost_mismatches == 0: every served plan's root cost is compared
//     bit-for-bit against a local uncached facade run of the same
//     spec line, so any cross-session serve or codec corruption fails.
//
// Machine-readable records (EADP_BENCH_JSON, see bench_util.h): wall
// median_ms per connection count plus qps/p50/p99/hit-rate values.
// conns>1 rows are core-count-sensitive and excluded from the CI gate by
// the same regex that excludes threads>1 rows (scripts/bench_gate.py).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "server/load_client.h"
#include "server/optimizer_service.h"
#include "server/plan_server.h"

using namespace eadp;

int main(int argc, char** argv) {
  int reps = BenchQueries(argc, argv, 3);
  BenchJsonWriter json("server");

  ServiceOptions service_options;
  service_options.pool_threads = 8;
  service_options.max_inflight = 64;
  OptimizerService service(service_options);
  PlanServer server(&service, PlanServerOptions{});
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "FATAL: server start failed: %s\n", error.c_str());
    return 1;
  }

  std::printf("plan-server throughput: loopback TCP, Zipf(1.0) over 64 "
              "shapes/conn, 500 warm queries/conn, median over %d runs\n",
              reps);
  std::printf("%6s  %10s %10s %10s %10s %9s\n", "conns", "wall ms", "qps",
              "p50 ms", "p99 ms", "hit rate");

  bool failed = false;
  for (int conns : {1, 4, 8}) {
    std::vector<double> wall, qps, p50, p99, hit;
    for (int rep = 0; rep < reps; ++rep) {
      LoadOptions load;
      load.port = server.port();
      load.connections = conns;
      // Verifying costs re-plans every shape locally; once (rep 0) pins
      // correctness, later reps measure the serving path alone.
      load.verify_costs = (rep == 0);
      bool ok = false;
      LoadReport report = RunLoad(load, &ok);
      if (!ok || report.errors != 0 || report.cost_mismatches != 0) {
        std::fprintf(stderr,
                     "FATAL: conns=%d rep=%d ok=%d errors=%llu "
                     "cost_mismatches=%llu\n",
                     conns, rep, ok ? 1 : 0,
                     static_cast<unsigned long long>(report.errors),
                     static_cast<unsigned long long>(report.cost_mismatches));
        failed = true;
        break;
      }
      wall.push_back(report.wall_ms);
      qps.push_back(report.qps);
      p50.push_back(report.p50_ms);
      p99.push_back(report.p99_ms);
      hit.push_back(report.hit_rate);
    }
    if (failed) break;
    double hit_rate = Median(hit);
    std::printf("%6d  %10.1f %10.1f %10.4f %10.4f %8.1f%%\n", conns,
                Median(wall), Median(qps), Median(p50), Median(p99),
                100 * hit_rate);
    std::string prefix = "zipf/conns=" + std::to_string(conns);
    json.RecordMs(prefix + "/wall", Median(wall));
    json.RecordValue(prefix + "/qps", Median(qps));
    json.RecordValue(prefix + "/p50_ms", Median(p50));
    json.RecordValue(prefix + "/p99_ms", Median(p99));
    json.RecordValue(prefix + "/hit_rate", hit_rate);
    if (hit_rate < 0.95) {
      std::fprintf(stderr,
                   "FATAL: conns=%d warm hit rate %.3f < 0.95 (in-process "
                   "warm rate is ~1.0; the server tier must stay within 5 "
                   "points)\n",
                   conns, hit_rate);
      failed = true;
      break;
    }
  }

  server.Shutdown();
  return failed ? 1 : 0;
}
