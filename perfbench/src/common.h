// Shared pieces of the perfbench binary: run arguments, the result record,
// statistics and JSON helpers, host metadata, and the reference planners
// the correctness checks compare against.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/query.h"
#include "plangen/plangen.h"

#include "corpus.h"
#include "trace.h"

namespace perfbench {

/// Queries above this size are routed to GOO/IDP (the PlannerKnobs
/// default); only the smaller ones, chains and TPC-H get a DPhyp
/// reference plan (a star of 40 has 2^39 plan classes).
constexpr int kExactRelations = 12;
/// The one session every serve workload plans in.
inline const char* const kSession = "bench";

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch;  ///< per-run directory for L2 tiers and spans
  std::string commit = "unknown";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What a workload hands back to main().
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< correctness failures (first 20)
  std::vector<Metric> metrics;
  std::string meta;  ///< extra metadata, as JSON object members ",k:v..."
  uint64_t percentile_samples = 0;

  void Fail(const std::string& what) {
    if (errors.size() < 20) errors.push_back(what);
  }
  bool correct() const { return failed == 0 && errors.empty(); }
};

/// What the timed window of an untraced run measured (see plan_cold.cc
/// and the Window class in serve.cc for how each figure is formed).
struct Timing {
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double peak_rss_mb = 0;
  uint64_t samples = 0;  ///< behind each percentile
  std::string meta;      ///< the repeated measurements, JSON object members
};

/// Appends the end-to-end metrics (BENCHMARK.json "end_to_end") to `out`.
/// `ratio_log_sum`/`ratio_n`: sum and count of log(served cost / DPhyp
/// cost) over the requests with a DPhyp reference.
void EndToEnd(const Timing& timing, double ratio_log_sum, uint64_t ratio_n,
              const std::vector<double>& setup_s, Outcome* out);

double Seconds(Clock::time_point a, Clock::time_point b);
/// CPU time of the calling thread, in seconds. The guest kernel accounts
/// steal (time the host gave this vCPU to someone else) separately, so it
/// is not in here; the in-process workloads time requests with it.
double ThreadCpuSeconds();
/// Nearest-rank percentile (q in (0, 1]) of an unsorted sample; 0 if empty.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);
bool SameBits(double a, double b);

std::string JsonNum(double v);
std::string JsonStr(const std::string& s);
std::string JsonArray(const std::vector<double>& v);

/// Hands freed heap memory back to the OS (glibc keeps it otherwise).
void TrimHeap();
/// Peak RSS in MB since the previous call (VmHWM, the kernel's high-water
/// mark), then resets that mark to the current RSS. Memory the allocator keeps
/// after a free still counts, as it does for a long-running server.
double TakePeakRssMb();
/// Steal ticks summed over all CPUs (/proc/stat).
long long StealTicks();
/// 1-minute load average.
double LoadAverage();

const eadp::PlannerKnobs& DefaultKnobs();
bool HasDphypReference(const CorpusEntry& e);
/// Cost of the DPhyp lazy-aggregation plan (Fig. 5); 0 if unsatisfiable.
double DphypCost(const eadp::Query& q);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
