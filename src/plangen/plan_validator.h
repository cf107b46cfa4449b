// Structural plan validation.
//
// A defensive checker used by the test suite (and available to clients):
// verifies that a finalized plan is well-formed with respect to its query —
// every input operator applied exactly once, predicates only over available
// attributes, groupings shaped correctly, outer-join default vectors
// covering every generated column of the padded side, and monotone
// cost/cardinality bookkeeping. Returns human-readable violations instead
// of aborting, so tests can assert emptiness and print the details.
//
// The checks mirror the finalization contract of OpTrees (Fig. 6): every
// generator output must validate cleanly — plan_validator_test asserts
// this for all five algorithms and that corrupted plans are rejected. The
// default-vector check enforces the generalized-outer-join requirement of
// Eqvs. 7/8 (every generated column of the padded side carries a default).
// Unmaterialized DP candidates (op_trees.h) are rejected: a grouping
// without its aggregate vector, a final map without its payload, or a
// binary node without an aggregation state cannot be executed or encoded.

#ifndef EADP_PLANGEN_PLAN_VALIDATOR_H_
#define EADP_PLANGEN_PLAN_VALIDATOR_H_

#include <string>
#include <vector>

#include "algebra/query.h"
#include "plangen/plan.h"

namespace eadp {

/// Validates a finalized plan against its query. Returns the list of
/// violations (empty = valid).
std::vector<std::string> ValidatePlan(const PlanPtr& plan, const Query& query);

}  // namespace eadp

#endif  // EADP_PLANGEN_PLAN_VALIDATOR_H_
