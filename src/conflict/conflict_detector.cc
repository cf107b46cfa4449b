#include "conflict/conflict_detector.h"

#include <cassert>

#include "common/strings.h"
#include "conflict/operator_properties.h"

namespace eadp {

ConflictDetector::ConflictDetector(const Query& query)
    : graph_(query.catalog().num_relations()) {
  const std::vector<QueryOp>& ops = query.ops();
  conflicts_.resize(ops.size());

  // First pass: syntactic eligibility sets. SES: relations referenced by
  // the predicate; a groupjoin additionally references its aggregate
  // arguments (right side). The query stores that raw SES per operator.
  for (size_t i = 0; i < ops.size(); ++i) {
    const QueryOp& o = ops[i];
    OperatorConflicts& c = conflicts_[i];
    c.ses = query.OpSes(i);
    // Degenerate predicates (none in our workloads): anchor each side.
    if (!c.ses.Intersects(o.left_rels)) c.ses.Add(o.left_rels.Lowest());
    if (!c.ses.Intersects(o.right_rels)) c.ses.Add(o.right_rels.Lowest());
    c.left_ses = c.ses.Intersect(o.left_rels);
    c.right_ses = c.ses.Intersect(o.right_rels);
  }

  // Second pass: CD-C conflict rules against every operator in the two
  // subtrees of each operator.
  for (size_t i = 0; i < ops.size(); ++i) {
    const QueryOp& o = ops[i];
    OperatorConflicts& c = conflicts_[i];
    for (size_t j = 0; j < ops.size(); ++j) {
      if (j == i) continue;
      const QueryOp& oa = ops[j];
      RelSet oa_rels = oa.Relations();
      RelSet oa_ses = conflicts_[j].ses;
      if (oa_rels.IsSubsetOf(o.left_rels)) {
        // Left nesting (e1 oa e2) o e3.
        if (!OpAssoc(oa.kind, o.kind)) {
          c.rules.push_back({oa.right_rels, oa_ses.Intersect(oa.left_rels)});
        }
        if (!OpLeftAsscom(oa.kind, o.kind)) {
          c.rules.push_back({oa.left_rels, oa_ses.Intersect(oa.right_rels)});
        }
      } else if (oa_rels.IsSubsetOf(o.right_rels)) {
        // Right nesting e1 o (e2 oa e3).
        if (!OpAssoc(o.kind, oa.kind)) {
          c.rules.push_back({oa.left_rels, oa_ses.Intersect(oa.right_rels)});
        }
        if (!OpRightAsscom(o.kind, oa.kind)) {
          c.rules.push_back({oa.right_rels, oa_ses.Intersect(oa.left_rels)});
        }
      }
    }
  }

  for (size_t i = 0; i < ops.size(); ++i) {
    graph_.AddEdge(conflicts_[i].left_ses, conflicts_[i].right_ses,
                   static_cast<int>(i));
  }
}

bool ConflictDetector::Applicable(int op_index, RelSet s1, RelSet s2) const {
  const OperatorConflicts& c = conflicts_[op_index];
  if (!c.left_ses.IsSubsetOf(s1) || !c.right_ses.IsSubsetOf(s2)) return false;
  RelSet s = s1.Union(s2);
  for (const ConflictRule& r : c.rules) {
    if (r.cond.Intersects(s) && !r.required.IsSubsetOf(s)) return false;
  }
  return true;
}

std::string ConflictDetector::ToString(const Query& query) const {
  std::string out;
  for (size_t i = 0; i < conflicts_.size(); ++i) {
    const OperatorConflicts& c = conflicts_[i];
    out += StrFormat("op %zu (%s): SES=%s", i,
                     OpKindName(query.ops()[i].kind), c.ses.ToString().c_str());
    for (const ConflictRule& r : c.rules) {
      out += " [" + r.cond.ToString() + "->" + r.required.ToString() + "]";
    }
    out += "\n";
  }
  return out;
}

}  // namespace eadp
