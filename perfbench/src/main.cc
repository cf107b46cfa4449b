// perfbench: the repository's end-to-end benchmark (see ../README.md).
//
//   perfbench --workload plan_cold|serve_hot|serve_hot_local|serve_churn
//             --seed N --seconds S --trace 0|1 --scratch DIR [--commit C]
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) print the per-layer metrics. The last stdout line is one
// JSON object {correct, attempted, failed, metrics}; the line before it
// carries the run metadata. Exit status is 0 only when every correctness
// check passed.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->scratch.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Clock::time_point process_start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "plan_cold|serve_hot|serve_hot_local|serve_churn --seed N "
                 "--seconds S --trace 0|1 --scratch DIR [--commit C]\n");
    return 2;
  }
  Outcome (*run)(const Args&) =
      args.workload == "plan_cold"         ? RunPlanCold
      : args.workload == "serve_hot"       ? RunServeHot
      : args.workload == "serve_hot_local" ? RunServeHotLocal
      : args.workload == "serve_churn"     ? RunServeChurn
                                           : nullptr;
  if (run == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.scratch);
  long long steal0 = StealTicks();
  double load0 = LoadAverage();

  Outcome out = run(args);

  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  }
  std::string samples = std::to_string(out.percentile_samples);
  std::printf(
      "{\"meta\":{\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
      "\"commit\":%s,\"nproc\":%ld,\"loadavg_start\":%s,\"loadavg_end\":%s,"
      "\"steal_ticks\":%lld,\"p50_samples\":%s,\"p99_samples\":%s,"
      "\"wall_s\":%s%s}}\n",
      JsonStr(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
      JsonNum(args.seconds).c_str(), args.trace ? 1 : 0,
      JsonStr(args.commit).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      JsonNum(load0).c_str(), JsonNum(LoadAverage()).c_str(),
      StealTicks() - steal0, samples.c_str(), samples.c_str(),
      JsonNum(Seconds(process_start, Clock::now())).c_str(), out.meta.c_str());
  std::string metrics;
  for (const Metric& m : out.metrics) {
    if (!metrics.empty()) metrics += ",";
    metrics += JsonStr(m.name) + ":{\"value\":" + JsonNum(m.value) +
               ",\"unit\":" + JsonStr(m.unit) + "}";
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
      out.correct() ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(out.attempted, 1)),
      static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}
