#include "common.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

std::string ReadFirstLine(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace

void EndToEnd(const Timing& timing, double ratio_log_sum, uint64_t ratio_n,
              const std::vector<double>& setup_s, Outcome* out) {
  uint64_t ok = out->attempted - out->failed;
  out->metrics.push_back({"qps", timing.qps, "1/s"});
  out->metrics.push_back({"p50_ms", timing.p50_ms, "ms"});
  out->metrics.push_back({"p99_ms", timing.p99_ms, "ms"});
  out->metrics.push_back(
      {"success_rate",
       out->attempted > 0
           ? static_cast<double>(ok) / static_cast<double>(out->attempted)
           : 0,
       "ratio"});
  out->metrics.push_back(
      {"plan_cost_ratio",
       ratio_n > 0 ? std::exp(ratio_log_sum / static_cast<double>(ratio_n))
                   : 0,
       "ratio"});
  out->metrics.push_back({"setup_s", Median(setup_s), "s"});
  out->metrics.push_back({"peak_rss_mb", timing.peak_rss_mb, "MB"});
  out->percentile_samples = timing.samples;
  out->meta += timing.meta + ",\"setup_reps_s\":" + JsonArray(setup_s);
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::string JsonNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (double x : v) {
    if (out.size() > 1) out += ',';
    out += JsonNum(x);
  }
  return out + "]";
}

void TrimHeap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

double TakePeakRssMb() {
  double peak_kb = 0;
  {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        peak_kb = std::strtod(line.c_str() + 6, nullptr);
        break;
      }
    }
  }
  std::ofstream("/proc/self/clear_refs") << "5";
  return peak_kb / 1024.0;
}

long long StealTicks() {
  std::istringstream in(ReadFirstLine("/proc/stat"));
  std::string label;
  long long v[8] = {0};
  in >> label;
  for (long long& x : v) in >> x;
  return v[7];
}

double LoadAverage() {
  std::istringstream in(ReadFirstLine("/proc/loadavg"));
  double one = 0;
  in >> one;
  return one;
}

const eadp::PlannerKnobs& DefaultKnobs() {
  static const eadp::PlannerKnobs knobs;
  return knobs;
}

bool HasDphypReference(const CorpusEntry& e) {
  return e.tpch || e.chain || e.num_relations <= kExactRelations;
}

double DphypCost(const eadp::Query& q) {
  eadp::OptimizerOptions o;
  o.algorithm = eadp::Algorithm::kDphyp;
  eadp::OptimizeResult r = eadp::Optimize(q, o);
  return r.plan ? r.plan->cost : 0;
}

}  // namespace perfbench
