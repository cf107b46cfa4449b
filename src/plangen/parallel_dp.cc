#include "plangen/parallel_dp.h"

#include <cassert>

namespace eadp {

ParallelDp::Worker::Worker(const Query* query,
                           const ConflictDetector* conflicts,
                           const OptimizerOptions& options,
                           const DpTable* read_dp, double cost_bound)
    : builder(query, conflicts, EffectiveBuilderOptions(options),
              std::make_shared<PlanArena>()),
      combiner(query, &builder, &shard, options.algorithm, cost_bound,
               options.h2_tolerance, read_dp) {
  shard.SetDominanceOptions(!options.prune_without_cardinality,
                            !options.prune_without_keys,
                            options.full_fd_dominance);
}

ParallelDp::ParallelDp(const Query* query, const ConflictDetector* conflicts,
                       const OptimizerOptions& options, PlanBuilder* primary,
                       DpTable* dp, int workers, ThreadPool* pool,
                       double cost_bound)
    : primary_(primary), dp_(dp), pool_(pool) {
  assert(workers >= 2 && pool != nullptr);
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(query, conflicts, options,
                                                dp, cost_bound));
  }
}

void ParallelDp::RunLevels(const std::vector<std::vector<CcpPair>>& levels) {
  assert(!ran_ && "ParallelDp is one-shot (see header)");
  ran_ = true;
  const int w_count = static_cast<int>(workers_.size());
  for (const std::vector<CcpPair>& level : levels) {
    if (level.empty()) continue;
    // Every worker scans the whole level and takes the pairs whose target
    // class it owns: the scan is a hash+compare per pair, dwarfed by plan
    // construction, and it keeps the pair lists shared and read-only
    // instead of materializing per-worker sublists.
    stats_.barrier_wait_ms += ThreadPool::FanOut(pool_, w_count, [&](int w) {
      Worker& ctx = *workers_[static_cast<size_t>(w)];
      const uint64_t mod = static_cast<uint64_t>(w_count);
      const uint64_t mine = static_cast<uint64_t>(w);
      for (const CcpPair& p : level) {
        if (p.s1.Union(p.s2).Hash() % mod == mine) {
          ctx.combiner.Combine(p.s1, p.s2);
        }
      }
    });
    // Barrier reached: this level's classes are final. Fold them into the
    // merged table so the next level's source reads see them.
    for (std::unique_ptr<Worker>& w : workers_) {
      dp_->AdoptClassesFrom(w->shard);
    }
  }
  for (std::unique_ptr<Worker>& w : workers_) {
    stats_.worker_plans_built += w->builder.plans_built();
    if (w->builder.arena()->nodes_allocated() > 0) {
      primary_->arena()->AdoptSibling(w->builder.arena());
    }
  }
}

}  // namespace eadp
