// Schema catalog: relations, attributes, declared keys and statistics.
//
// A Catalog describes the inputs of one query: every base relation with its
// cardinality and declared keys, and every attribute with its estimated
// number of distinct values. Attributes are numbered globally across the
// whole query (at most 128 per query), so sets of attributes are plain
// Bitset128 values, mirroring the relation sets used by the enumerator.

#ifndef EADP_CATALOG_CATALOG_H_
#define EADP_CATALOG_CATALOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitset.h"

namespace eadp {

/// One column of a base relation.
struct AttributeDef {
  std::string name;     ///< e.g. "R1.a"
  int relation = -1;    ///< index of the owning relation in the catalog
  double distinct = 1;  ///< estimated number of distinct values
};

/// One base relation.
struct RelationDef {
  std::string name;            ///< e.g. "customer"
  double cardinality = 1;      ///< estimated row count
  AttrSet attributes;          ///< global attribute ids owned by this relation
  std::vector<AttrSet> keys;   ///< declared keys (each a set of attributes)

  /// SQL primary key / uniqueness declarations imply the relation is
  /// duplicate-free (paper Sec. 3.2, Remark). Relations without keys are
  /// treated as bags that may contain duplicates.
  bool duplicate_free = false;
};

/// The schema for one query. Cheap to copy; typically built once per query.
///
/// Drift identity: every Catalog instance carries a process-unique
/// `catalog_id` and a monotonically increasing `stats_epoch`. The epoch is
/// bumped by the statistics mutators (SetCardinality/SetDistinct) only —
/// schema growth (AddRelation/AddAttribute/DeclareKey) happens before a
/// catalog is planned against and does not count as drift. Together,
/// (catalog_id, stats_epoch) lets a cache answer "are these the statistics
/// I planned under?" without comparing statistic bytes: equal pairs imply
/// unchanged stats. Copies take a FRESH id (two copies can be mutated
/// independently; sharing an id would let their epochs alias), moves keep
/// the id (the object is the same logical catalog relocated).
class Catalog {
 public:
  Catalog();
  Catalog(const Catalog& other);
  Catalog(Catalog&& other) noexcept;
  Catalog& operator=(const Catalog& other);
  Catalog& operator=(Catalog&& other) noexcept;

  /// Adds a relation with the given name and cardinality; returns its index.
  int AddRelation(const std::string& name, double cardinality);

  /// Adds an attribute to relation `rel`; returns its global attribute id.
  int AddAttribute(int rel, const std::string& name, double distinct);

  /// Declares `key_attrs` (attributes of `rel`) as a key of `rel` and marks
  /// the relation duplicate-free.
  void DeclareKey(int rel, AttrSet key_attrs);

  /// Statistics mutators (used by the workload fuzzer to perturb base
  /// statistics in place). Values must be finite and >= 1; consistency
  /// between a key attribute's distinct count and its relation's
  /// cardinality is the caller's responsibility. Each call bumps
  /// stats_epoch(), even when the new value equals the old one — the epoch
  /// is a cheap conservative signal, and false positives just cost a byte
  /// comparison downstream (queries/fingerprint.h SameStats).
  void SetCardinality(int r, double cardinality);
  void SetDistinct(int a, double distinct);

  /// Process-unique identity of this catalog instance (fresh on copy,
  /// preserved on move).
  uint64_t catalog_id() const { return catalog_id_; }
  /// Bumped by every statistics mutation. Starts at 0.
  uint64_t stats_epoch() const { return stats_epoch_; }

  int num_relations() const { return static_cast<int>(relations_.size()); }
  int num_attributes() const { return static_cast<int>(attributes_.size()); }

  const RelationDef& relation(int r) const { return relations_[r]; }
  const AttributeDef& attribute(int a) const { return attributes_[a]; }

  /// The relation owning attribute `a`.
  int RelationOf(int a) const { return attributes_[a].relation; }

  /// The set of relations that own at least one attribute in `attrs`.
  RelSet RelationsOf(AttrSet attrs) const;

  /// All attributes owned by the relations in `rels`.
  AttrSet AttributesOf(RelSet rels) const;
  /// The attributes in `among` owned by relations in `rels`: equal to
  /// among ∩ AttributesOf(rels), but walks `among` (a predicate's few
  /// attributes) through attribute -> relation instead of uniting every
  /// attribute of every relation in `rels`. Inline: the DP calls it for
  /// every join it builds.
  AttrSet AttributesOf(RelSet rels, AttrSet among) const {
    AttrSet attrs;
    for (int a : BitsOf(among)) {
      if (rels.Contains(attributes_[a].relation)) attrs.Add(a);
    }
    return attrs;
  }

  /// Distinct-value estimate for attribute `a`.
  double DistinctOf(int a) const { return attributes_[a].distinct; }

  /// Human-readable attribute list, e.g. "R0.a,R1.b".
  std::string AttrSetToString(AttrSet attrs) const;

 private:
  static uint64_t NextCatalogId();

  std::vector<RelationDef> relations_;
  std::vector<AttributeDef> attributes_;
  uint64_t catalog_id_ = 0;
  uint64_t stats_epoch_ = 0;
};

}  // namespace eadp

#endif  // EADP_CATALOG_CATALOG_H_
