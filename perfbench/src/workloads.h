// The benchmark workloads (../README.md says why each exists).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// PlannerSession::Optimize, default knobs, no cache tiers, whole passes
/// over the fixed plan_cold corpus.
Outcome RunPlanCold(const Args& args);

/// Warm L1 hits over loopback TCP: bench_server's Zipf(1.0) mix over 64
/// shapes, cache filled in set-up.
Outcome RunServeHot(const Args& args);

/// serve_hot's working set and request stream, calling the
/// OptimizerService in process: the warm-hit service path without the
/// socket.
Outcome RunServeHotLocal(const Args& args);

/// 512 shapes over a 64-entry L1 with a persistent L2, drift tolerance
/// 0.2, and a SetStats every 16th request, calling the service in process.
Outcome RunServeChurn(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
