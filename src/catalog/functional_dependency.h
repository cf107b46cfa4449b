// Functional dependencies and candidate keys.
//
// The optimality-preserving pruning of Sec. 4.6 compares the FD closures of
// two plans; the paper notes this "can be weakened in an actual
// implementation by comparing the sets of candidate keys instead". We provide
// both: a full FD set with attribute-closure computation (used in tests and
// available to clients), and the compact candidate-key machinery the plan
// generator uses (KeySet in plangen/keys.h builds on the dominance helper
// here).

#ifndef EADP_CATALOG_FUNCTIONAL_DEPENDENCY_H_
#define EADP_CATALOG_FUNCTIONAL_DEPENDENCY_H_

#include <span>
#include <string>
#include <vector>

#include "common/bitset.h"

namespace eadp {

/// A functional dependency lhs -> rhs over global attribute ids.
struct FunctionalDependency {
  AttrSet lhs;
  AttrSet rhs;

  friend bool operator==(const FunctionalDependency& a,
                         const FunctionalDependency& b) {
    return a.lhs == b.lhs && a.rhs == b.rhs;
  }
};

/// A set of functional dependencies with closure queries.
class FdSet {
 public:
  void Add(AttrSet lhs, AttrSet rhs) { fds_.push_back({lhs, rhs}); }
  void Add(const FunctionalDependency& fd) { fds_.push_back(fd); }
  void AddAll(const FdSet& other);
  void Reserve(size_t n) { fds_.reserve(n); }

  size_t size() const { return fds_.size(); }
  const std::vector<FunctionalDependency>& fds() const { return fds_; }

  /// Attribute closure: the largest set X+ with `attrs` -> X+ derivable from
  /// this FD set (standard fixpoint; O(|fds|^2) worst case, fine at our
  /// sizes).
  AttrSet Closure(AttrSet attrs) const;

  /// True iff lhs -> rhs is implied by this FD set.
  bool Implies(AttrSet lhs, AttrSet rhs) const {
    return Closure(lhs).ContainsAll(rhs);
  }

  /// True iff `attrs` determines all of `universe` (i.e. is a superkey of a
  /// relation with attribute set `universe`).
  bool IsSuperkey(AttrSet attrs, AttrSet universe) const {
    return Closure(attrs).ContainsAll(universe);
  }

  /// All minimal keys of `universe` under this FD set, found by breadth-first
  /// shrinking from `universe`. Exponential in the worst case; intended for
  /// tests and small schemas.
  std::vector<AttrSet> CandidateKeys(AttrSet universe) const;

  /// True iff every FD derivable from `other` is derivable from *this
  /// (i.e. Closure_this >= Closure_other pointwise on other's FDs).
  bool Covers(const FdSet& other) const;

 private:
  std::vector<FunctionalDependency> fds_;
};

/// Dominance helper for key sets (each key an AttrSet): `a` dominates `b`
/// iff every key in `b` is implied by (i.e. a superset of) some key in `a`.
/// A smaller key is stronger: k1 ⊆ k2 means k1 implies k2.
bool KeysDominate(std::span<const AttrSet> a, std::span<const AttrSet> b);
inline bool KeysDominate(const std::vector<AttrSet>& a,
                         const std::vector<AttrSet>& b) {
  return KeysDominate(std::span<const AttrSet>(a),
                      std::span<const AttrSet>(b));
}

/// Inserts `key` into `keys` keeping only minimal keys: drops the insert if a
/// subset is already present, and removes supersets of `key`.
void InsertMinimalKey(std::vector<AttrSet>& keys, AttrSet key);

}  // namespace eadp

#endif  // EADP_CATALOG_FUNCTIONAL_DEPENDENCY_H_
