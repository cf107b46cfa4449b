#include "plangen/parallel.h"

#include <future>
#include <utility>

#include "plangen/large_query.h"
#include "plangen/plan_cache.h"
#include "plangen/session.h"

namespace eadp {

BatchResult OptimizeBatch(std::span<const Query> queries,
                          const OptimizerOptions& options, ThreadPool* pool) {
  // Shim (see parallel.h): the batch loop lives on PlannerSession so the
  // per-query cache probe is the session's single OptimizeImpl path.
  return PlannerSession(options).OptimizeBatch(queries, pool);
}

BatchResult OptimizeBatch(std::span<const Query> queries,
                          const OptimizerOptions& options, int num_threads) {
  return PlannerSession(options).OptimizeBatch(queries, num_threads);
}

OptimizeResult OptimizeAdaptiveConcurrent(const Query& query,
                                          const OptimizerOptions& options,
                                          ThreadPool* pool) {
  // Shim: the session probes the cache (once) and races on a miss.
  return PlannerSession(options).OptimizeConcurrent(query, pool);
}

OptimizeResult OptimizeAdaptiveConcurrentUncached(
    const Query& query, const OptimizerOptions& options, ThreadPool* pool,
    double cost_bound) {
  if (pool == nullptr || pool->num_threads() < 2 ||
      query.NumRelations() <= options.adaptive_exact_relations) {
    return OptimizeAdaptiveUncached(query, options, cost_bound);
  }
  // Both strategies read the same const Query and build into private
  // arenas. kIdp goes to the pool; kGoo runs on the calling thread — the
  // caller would only park on the futures anyway, so running one strategy
  // inline takes a single pool slot and keeps the caller productive.
  // Waiting for *both* results before picking makes the outcome
  // independent of completion order.
  std::future<OptimizeResult> idp_future =
      pool->Submit([&query, &options] { return OptimizeIdp(query, options); });
  OptimizeResult goo;
  try {
    goo = OptimizeGreedy(query, options);
  } catch (...) {
    // Never abandon the in-flight task: it reads caller-owned query state
    // that an unwinding caller may destroy.
    idp_future.wait();
    throw;
  }
  return PickAdaptiveWinner(idp_future.get(), std::move(goo));
}

}  // namespace eadp
