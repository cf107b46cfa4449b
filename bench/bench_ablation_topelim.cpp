// Ablation: value of the top-grouping elimination (Eqv. 42; op_trees.h).
// With elimination, plans whose pushed groupings make G a key skip the
// final Γ entirely (the paper's Fig. 11 discussion: cost 9 -> 7).

#include <cstdio>

#include "bench/bench_util.h"

using namespace eadp;

int main(int argc, char** argv) {
  int queries = BenchQueries(argc, argv, 50);
  const int max_rels = 9;

  std::printf("Ablation: top-grouping elimination (Eqv. 42) "
              "(%d queries/size)\n\n", queries);
  std::printf("%4s %14s %14s %12s %14s\n", "rels", "cost(with)",
              "cost(without)", "avg ratio", "eliminated[%]");

  for (int n = 3; n <= max_rels; ++n) {
    double with_sum = 0;
    double without_sum = 0;
    double ratio_sum = 0;
    int eliminated = 0;
    for (int i = 0; i < queries; ++i) {
      Query q = BenchQuery(n, static_cast<uint64_t>(n) * 600000 + i);
      OptimizerOptions with_elim;
      with_elim.algorithm = Algorithm::kEaPrune;
      OptimizerOptions without_elim = with_elim;
      without_elim.top_grouping_elimination = false;
      OptimizeResult a = Optimize(q, with_elim);
      OptimizeResult b = Optimize(q, without_elim);
      with_sum += a.plan->cost;
      without_sum += b.plan->cost;
      ratio_sum += a.plan->cost / b.plan->cost;
      // Elimination fired if the finalized plan has no kFinalGroup node.
      const PlanNode* below = a.plan->left;
      if (below != nullptr && below->op != PlanOp::kFinalGroup) ++eliminated;
    }
    std::printf("%4d %14.4g %14.4g %12.4f %13.0f%%\n", n,
                with_sum / queries, without_sum / queries,
                ratio_sum / queries, 100.0 * eliminated / queries);
  }
  std::printf("\n(expected: ratio <= 1; elimination fires whenever pushed "
              "groupings turn G into a key of a duplicate-free result)\n");
  return 0;
}
