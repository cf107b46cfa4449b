// Canonical query fingerprints for cross-query plan caching.
//
// A fingerprint identifies everything about a query that the optimizer's
// outcome depends on — operator-tree topology, operator kinds, predicate
// structure, catalog cardinalities/selectivities/distinct counts/keys,
// grouping attributes and the aggregation vector — while deliberately
// excluding relation and attribute *names*: two queries that differ only
// in how their relations are called (same shapes, same statistics) plan
// identically, so they must fingerprint identically for the plan cache
// (plangen/plan_cache.h) to reuse work across them. Plans reference
// relations and attributes by index, never by name, so a plan built for
// one query of a fingerprint class is valid — and cost-identical — for
// every member of the class.
//
// The fingerprint is a canonical byte serialization of that structural
// core plus a 128-bit hash of it. The hash routes cache probes (shard +
// bucket selection); the canonical bytes are the *equality witness*: a
// cache hit is only served after a full byte comparison, so hash
// collisions can never surface a structurally different query's plan (the
// why-equality-is-mandatory discussion lives in docs/DESIGN.md §10).
//
// What IS part of the fingerprint, in serialization order:
//   * per relation (in catalog order): cardinality, duplicate-freeness,
//     owned-attribute bitmask, declared keys (sorted);
//   * per attribute (in catalog order): owning relation, distinct count;
//   * the grouping attribute set G;
//   * the aggregation vector F, *including* output column labels — they
//     name the query's result schema (part of what the plan produces),
//     not a relation, so excluding them could serve a plan whose output
//     columns are labeled differently than the query asked for;
//   * the avg-reconstitution final divisions;
//   * every flattened operator: kind, selectivity, original left/right
//     subtree relation sets (the tree topology), predicate equalities as
//     (attr, attr) index pairs, groupjoin aggregate vectors.
//
// Attribute and relation *indices* are structural, not naming: they encode
// which relation owns which attribute and how predicates wire them
// together. Two queries match only if their catalogs enumerate relations
// and attributes in the same order — the canonical order a parser or
// generator produces deterministically.
//
// Two-layer form (drift-aware caching, DESIGN.md §14): the fingerprint
// factors into a STRUCTURAL layer (everything above except the statistic
// values — shapes, predicates, keys, attribute wiring, agg labels) and a
// STATS OVERLAY (the relation cardinalities, attribute distinct counts and
// operator selectivities, in the same canonical order). The combined
// fingerprint is the pure composition `structural bytes + overlay bytes`,
// so combined equality still holds exactly when both structure and
// statistics are bit-equal — the PR 5/PR 8 cache semantics are a special
// case. Drift-aware caches key on the structural layer and keep the
// overlay per entry, so a statistics change moves the overlay but not the
// key, and a cached plan can be re-costed instead of becoming unreachable.

#ifndef EADP_QUERIES_FINGERPRINT_H_
#define EADP_QUERIES_FINGERPRINT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "algebra/query.h"

namespace eadp {

/// Little-endian fixed-width serializer into a canonical byte string.
/// Shared by the query fingerprint (fingerprint.cc) and the plan cache's
/// OptimizerOptions suffix (plan_cache.cc): both halves of a cache key
/// must come from the *same* encoder, or a future encoding change could
/// silently desynchronize them and turn every probe into a miss.
/// Doubles are serialized by bit pattern: the fingerprint must
/// distinguish every value the cost model can distinguish, exactly.
class CanonicalWriter {
 public:
  explicit CanonicalWriter(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }

  void U32(uint32_t v) { Raw(&v, sizeof(v)); }

  void U64(uint64_t v) { Raw(&v, sizeof(v)); }

  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }

  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }

  void Set(Bitset128 s) {
    U64(s.low());
    U64(s.high());
  }

  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }

 private:
  void Raw(const void* data, size_t n) {
    out_->append(static_cast<const char*>(data), n);
  }

  std::string* out_;
};

/// The fingerprint of one query: a canonical structural serialization and
/// a 128-bit hash of it (two independently seeded 64-bit halves).
/// `Matches` is the only correctness-bearing comparison — it compares the
/// canonical bytes, so it stays exact even when hashes collide (the
/// collision tests force exactly that).
struct QueryFingerprint {
  uint64_t hash = 0;       ///< primary hash: cache shard + bucket routing
  uint64_t hash2 = 0;      ///< independent second hash: cheap pre-filter
  std::string canonical;   ///< canonical byte serialization (the witness)

  /// Full structural equality: byte-exact canonical forms. Never trusts
  /// the hashes.
  bool Matches(const QueryFingerprint& other) const {
    return canonical == other.canonical;
  }
};

/// The statistics layer of a query fingerprint: every estimator input the
/// structural layer deliberately omits, in canonical (catalog / flattening)
/// order. Two overlays of one structural class describe the same plan
/// space under different statistics.
struct StatsOverlay {
  std::vector<double> rel_cardinality;  ///< per relation, catalog order
  std::vector<double> attr_distinct;    ///< per attribute, catalog order
  std::vector<double> op_selectivity;   ///< per flattened op, query order
  /// Identity hints (never serialized, never part of equality *semantics*):
  /// the catalog instance + epoch the overlay was captured from. When both
  /// match, SameStats skips the catalog-stat byte comparison — the epoch
  /// contract (catalog/catalog.h) guarantees the values cannot have moved.
  uint64_t catalog_id = 0;
  uint64_t stats_epoch = 0;
};

/// A fingerprint factored into its two layers. `structural.canonical` is
/// the stats-insensitive witness (serialization version 2); the overlay
/// carries the statistics that version 1 interleaved.
struct SplitFingerprint {
  QueryFingerprint structural;
  StatsOverlay overlay;
};

/// Computes the two-layer fingerprint: hashed structural layer + captured
/// overlay (including the catalog id/epoch hints).
SplitFingerprint FingerprintQuerySplit(const Query& query);

/// As FingerprintQuerySplit but with structural hashes left at 0, for
/// callers composing a longer key (options block, overlay) before hashing
/// once.
SplitFingerprint FingerprintQuerySplitUnhashed(const Query& query);

/// Appends the canonical overlay serialization (marker byte 0xfd, then the
/// three counted F64 vectors) to `*out`. This is BOTH the combined-key
/// suffix and the on-disk overlay encoding — one encoder, so the two can
/// never desynchronize.
void AppendOverlay(const StatsOverlay& overlay, std::string* out);

/// Parses bytes produced by AppendOverlay. Returns false (leaving *out
/// untouched) on any malformed input. Identity hints come back as 0 —
/// serialized overlays have no live catalog to point at.
bool ParseOverlay(std::string_view bytes, StatsOverlay* out);

/// Bit-exact statistic equality: every cardinality/distinct/selectivity
/// identical by bit pattern (and equal vector shapes). Uses the
/// catalog-id/epoch fast path for the catalog-derived vectors when both
/// hints are present; selectivities are query-side and always compared.
bool SameStats(const StatsOverlay& a, const StatsOverlay& b);

/// 64-bit hash of the canonical overlay bytes (duplicate suppression in
/// the persistent tier; never a correctness witness).
uint64_t OverlayHash(const StatsOverlay& overlay);

/// OverlayHash of an overlay given in its AppendOverlay encoding, without
/// parsing it: the persistent tier checks a stored overlay against the
/// hash it indexed the record under.
uint64_t EncodedOverlayHash(std::string_view bytes);

/// Pure composition: combined = structural bytes + overlay bytes, hashed.
/// Combined equality == structural equality AND bit-equal statistics —
/// exactly the pre-split fingerprint contract.
QueryFingerprint ComposeFingerprint(const QueryFingerprint& structural,
                                    const StatsOverlay& overlay);

/// Computes the canonical fingerprint of `query`. Deterministic in the
/// query's structure; invariant under renaming relations and attributes.
/// Cost is linear in the query size (a few microseconds at 100 relations —
/// see bench_plan_cache), so probing a cache with it is always worthwhile.
/// Defined as ComposeFingerprint(FingerprintQuerySplit(query)): statistics
/// changes still move this fingerprint.
QueryFingerprint FingerprintQuery(const Query& query);

/// (Re)computes hash/hash2 from the current canonical bytes. The single
/// place the fingerprint hash seeds live.
void RehashFingerprint(QueryFingerprint* fp);

}  // namespace eadp

#endif  // EADP_QUERIES_FINGERPRINT_H_
