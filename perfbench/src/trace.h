// In-memory span recorder for the traced benchmark run.
//
// A span is one call into a layer function, made from the benchmark's own
// code: name, start, end, parent span and request id. Spans stay in memory
// and are written out once, when the run ends. A span's self time is its
// duration minus the part of it that its children cover; the request
// span's self time is the time no layer span accounts for.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;  ///< static string
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  ///< index into the recorder, -1 for a root
  uint32_t request;
};

class Tracer {
 public:
  /// Opens a span and returns its index.
  int Begin(const char* name, int parent, uint32_t request) {
    spans_.push_back({name, NowNs(), 0, parent, request});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int index) { spans_[static_cast<size_t>(index)].end_ns = NowNs(); }
  /// Records an interval measured elsewhere (e.g. around a socket call).
  int Add(const char* name, int64_t start_ns, int64_t end_ns, int parent,
          uint32_t request) {
    spans_.push_back({name, start_ns, end_ns, parent, request});
    return static_cast<int>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time in microseconds of every span, by span name.
  std::map<std::string, std::vector<double>> SelfTimesUs() const;

  /// Writes one JSON object per span (name, start/end relative to the
  /// first span, parent, request). False on an I/O error.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent, uint32_t request)
      : tracer_(tracer), index_(tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
