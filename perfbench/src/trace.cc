#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::map<std::string, std::vector<double>> Tracer::SelfTimesUs() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out[s.name].push_back(
        static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3);
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"request\":%u}\n",
                 s.name, static_cast<long long>(s.start_ns - base),
                 static_cast<long long>(s.end_ns - base), s.parent, s.request);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
