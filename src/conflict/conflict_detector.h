// Conflict detector: builds the query hypergraph and the applicability test.
//
// Implements the rule-based detector CD-C of Moerkotte, Fender & Eich
// (SIGMOD 2013). For every operator o of the input tree it derives
// conflict rules from the assoc/l-asscom/r-asscom properties of o against
// every operator in its subtrees. A rule `cond -> required` states: a plan
// class S that intersects `cond` may apply o only if it also contains all
// of `required`. The syntactic eligibility sets (SES) of the operators
// become the hyperedges that drive the DPhyp enumerator; the rules are
// checked by Applicable().

#ifndef EADP_CONFLICT_CONFLICT_DETECTOR_H_
#define EADP_CONFLICT_CONFLICT_DETECTOR_H_

#include <string>
#include <vector>

#include "algebra/query.h"
#include "hypergraph/hypergraph.h"

namespace eadp {

/// One conflict rule: if the candidate set intersects `cond`, it must
/// contain all of `required`.
struct ConflictRule {
  RelSet cond;
  RelSet required;
};

/// Per-operator conflict information.
struct OperatorConflicts {
  /// Syntactic eligibility set: Query::OpSes, plus the lowest relation of a
  /// side the predicate does not reference (degenerate predicates only), so
  /// each side of the hyperedge is non-empty. The grouping test
  /// (Query::GroupByPlus) uses the raw, unpadded value, not this one.
  RelSet ses;
  RelSet left_ses;   ///< SES ∩ T(left(o))
  RelSet right_ses;  ///< SES ∩ T(right(o))
  std::vector<ConflictRule> rules;
};

/// Runs CD-C over a query and answers applicability questions.
class ConflictDetector {
 public:
  explicit ConflictDetector(const Query& query);

  const Hypergraph& hypergraph() const { return graph_; }
  const OperatorConflicts& conflicts(int op_index) const {
    return conflicts_[op_index];
  }

  /// True iff operator `op_index` may be applied with left argument plans
  /// over S1 and right argument plans over S2 (orientation as given; the
  /// caller handles commutativity by swapping).
  bool Applicable(int op_index, RelSet s1, RelSet s2) const;

  std::string ToString(const Query& query) const;

 private:
  std::vector<OperatorConflicts> conflicts_;
  Hypergraph graph_;
};

}  // namespace eadp

#endif  // EADP_CONFLICT_CONFLICT_DETECTOR_H_
