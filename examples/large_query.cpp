// Large-query demo: optimize seeded 50- and 100-relation queries with the
// large-query strategies and the adaptive facade.
//
//   $ ./large_query [n]
//
// Exhaustive DPhyp enumeration is hopeless at this scale (a 100-clique has
// ~3^100 csg-cmp-pairs); the large-query subsystem plans such queries in
// milliseconds. The demo prints, per topology: the cost and time of GOO
// (greedy operator ordering), IDP (iterative DP), the unoptimized original
// tree, and what the adaptive facade chose — plus the plan_validator verdict
// for every produced plan.

#include <cstdio>
#include <cstdlib>

#include "plangen/large_query.h"
#include "plangen/plan_validator.h"
#include "plangen/plangen.h"
#include "plangen/session.h"
#include "queries/query_generator.h"

using namespace eadp;

int main(int argc, char** argv) {
  int n = argc > 1 ? std::atoi(argv[1]) : 100;
  if (n < 2 || n > 100) {
    std::fprintf(stderr, "usage: %s [relations (2..100)]\n", argv[0]);
    return 1;
  }

  for (QueryTopology t : {QueryTopology::kChain, QueryTopology::kStar,
                          QueryTopology::kCycle, QueryTopology::kClique}) {
    GeneratorOptions gen;
    gen.topology = t;
    gen.num_relations = n;
    Query query = GenerateRandomQuery(gen, /*seed=*/1);
    std::printf("== %s, n=%d ==\n", TopologyName(t), n);

    auto report = [&](const char* label, const OptimizeResult& r) {
      if (r.plan == nullptr) {
        std::printf("  %-9s no plan\n", label);
        return;
      }
      size_t violations = ValidatePlan(r.plan, query).size();
      std::printf(
          "  %-9s cost=%-12.6g %8.2f ms  %6llu cuts  groupings pushed=%d  "
          "validator: %s\n",
          label, r.plan->cost, r.stats.optimize_ms,
          static_cast<unsigned long long>(r.stats.ccp_count),
          r.plan->PushedGroupingCount(), violations == 0 ? "ok" : "VIOLATED");
    };

    OptimizerOptions options;
    options.algorithm = Algorithm::kGoo;
    report("GOO", Optimize(query, options));
    options.algorithm = Algorithm::kIdp;
    report("IDP", Optimize(query, options));
    report("original", OptimizeOriginal(query, OptimizerOptions{}));

    OptimizeResult adaptive = PlannerSession().Optimize(query);
    std::printf("  adaptive picked %s:\n", AlgorithmName(adaptive.stats.algorithm));
    report("", adaptive);
  }
  return 0;
}
