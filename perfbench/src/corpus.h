// Seeded request corpora of the benchmark workloads, as replayable
// corpus spec lines (queries/mutation.h): the same line names the same
// query in the planner, in the service and in the references.

#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/query.h"

namespace perfbench {

struct CorpusEntry {
  std::string spec;
  int num_relations = 0;
  bool tpch = false;
  bool chain = false;
};

/// The plan_cold mix, in generation order: random trees n=6..12 (default
/// and outer presets), chains n=6..9, cycles n=6..10, stars n=6..8,
/// cliques n=8..12, the six TPC-H skeletons, and a ~10% slice of chains
/// and stars with n=20..40 that the adaptive facade routes to GOO/IDP.
/// The corpus is fixed (see corpus.cc for why); run seeds only order it.
std::vector<CorpusEntry> PlanColdCorpus();

/// A seeded permutation of [0, n): the order of every plan_cold pass.
std::vector<size_t> PassOrder(size_t n, uint64_t seed);

/// serve_churn's working set: `shapes` distinct lines drawn from the
/// plan_cold mix (the mix doubled, a fixed shuffle, prefix); fixed like
/// the plan_cold corpus.
std::vector<CorpusEntry> ChurnWorkingSet(int shapes);

/// serve_hot's and serve_hot_local's working set: bench_server's 64 shapes of connection 0
/// (LoadSpecLine); the seed drives only the request stream.
std::vector<CorpusEntry> HotWorkingSet(int shapes);

/// Parses and materializes one line (aborts on a malformed line: every
/// line comes from the functions above).
eadp::Query Materialize(const std::string& spec);

/// Inverse-CDF Zipf(theta) over ranks [0, n); rank 0 is the hottest.
class Zipf {
 public:
  Zipf(int n, double theta);
  /// `u` uniform in [0, 1).
  int Pick(double u) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
