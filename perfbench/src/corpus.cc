#include "corpus.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/rng.h"
#include "queries/mutation.h"
#include "server/load_client.h"

namespace perfbench {

namespace {

struct SizeClass {
  const char* topology;
  const char* preset;
  int lo;
  int hi;
  int step;
  int per_size;  ///< queries per size in one copy of the mix
};

// Sizes are capped because EA-Prune's optimization time has a very long
// tail past them (a star of 11 took up to 3.6 s, a chain of 12 up to
// 0.54 s); one such query would set every percentile of the run.
constexpr SizeClass kMix[] = {
    {"random-tree", "default", 6, 12, 1, 12},
    {"random-tree", "outer", 6, 12, 1, 12},
    {"chain", "default", 6, 9, 1, 16},
    {"cycle", "default", 6, 10, 1, 12},
    {"star", "default", 6, 8, 1, 12},
    {"clique", "default", 8, 12, 1, 12},
    // The large slice: past adaptive_exact_relations (12), so GOO/IDP.
    {"chain", "default", 20, 40, 5, 4},
    {"star", "default", 20, 40, 5, 4},
};

// The corpus is fixed: within the caps a few queries still take 20-65 ms
// among medians of 1-20 ms (README.md has the probe), so a corpus drawn
// per run seed moved whole-pass time by 1.8x between seeds. The run seed
// drives the request order and stream instead.
constexpr uint64_t kCorpusSeed = 20150413;

constexpr const char* kTpch[] = {"ex", "q1", "q3", "q5", "q10", "q18"};

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void Shuffle(std::vector<CorpusEntry>* v, uint64_t seed) {
  eadp::Rng rng(Mix64(seed));
  for (size_t i = v->size(); i > 1; --i) {
    size_t j = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

std::vector<CorpusEntry> BuildMix(int copies) {
  std::vector<CorpusEntry> out;
  uint64_t counter = 0;
  for (const SizeClass& c : kMix) {
    for (int n = c.lo; n <= c.hi; n += c.step) {
      for (int k = 0; k < c.per_size * copies; ++k) {
        // Generator seeds stay below 2^31 so lines read back unchanged.
        uint64_t gen_seed = Mix64(kCorpusSeed * 1000003u + counter++) % 2147483647u;
        char line[160];
        std::snprintf(line, sizeof(line), "gen %s %d %s %llu :", c.topology,
                      n, c.preset, static_cast<unsigned long long>(gen_seed));
        out.push_back({line, n, false, std::string(c.topology) == "chain"});
      }
    }
  }
  for (const char* name : kTpch) {
    std::string line = std::string("tpch ") + name + " :";
    out.push_back({line, Materialize(line).catalog().num_relations(), true,
                   false});
  }
  return out;
}

}  // namespace

std::vector<CorpusEntry> PlanColdCorpus() { return BuildMix(1); }

std::vector<size_t> PassOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  eadp::Rng rng(Mix64(seed ^ 0x706c616eull));
  for (size_t i = n; i > 1; --i) {
    size_t j = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

std::vector<CorpusEntry> ChurnWorkingSet(int shapes) {
  // The doubled mix repeats no line: each copy draws fresh generator seeds.
  std::vector<CorpusEntry> mix = BuildMix(2);
  Shuffle(&mix, kCorpusSeed);
  if (static_cast<int>(mix.size()) > shapes) mix.resize(static_cast<size_t>(shapes));
  return mix;
}

std::vector<CorpusEntry> HotWorkingSet(int shapes) {
  std::vector<CorpusEntry> out;
  for (int s = 0; s < shapes; ++s) {
    std::string line = eadp::LoadSpecLine(/*conn=*/0, s);
    eadp::CorpusEntry parsed;
    std::string error;
    eadp::ParseCorpusEntry(line, &parsed, &error);
    out.push_back({line, parsed.seed.num_relations, false,
                   parsed.seed.topology == eadp::QueryTopology::kChain});
  }
  return out;
}

eadp::Query Materialize(const std::string& spec) {
  eadp::CorpusEntry entry;
  std::string error;
  if (!eadp::ParseCorpusEntry(spec, &entry, &error)) {
    std::fprintf(stderr, "perfbench: bad spec line '%s': %s\n", spec.c_str(),
                 error.c_str());
    std::abort();
  }
  return eadp::MaterializeSeed(entry.seed);
}

Zipf::Zipf(int n, double theta) : cdf_(static_cast<size_t>(n)) {
  double total = 0;
  for (int k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), theta);
    cdf_[static_cast<size_t>(k)] = total;
  }
  for (double& c : cdf_) c /= total;
}

int Zipf::Pick(double u) const {
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<int>(it - cdf_.begin());
}

}  // namespace perfbench
