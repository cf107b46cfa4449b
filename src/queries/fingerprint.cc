#include "queries/fingerprint.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/hash.h"

namespace eadp {

namespace {

/// First byte of a canonical overlay serialization. Distinct from the
/// structural version byte (2), the options-block marker (0xfe,
/// plan_cache.cc) and the synthetic-test prefix (0xff), so every composed
/// key region is self-identifying.
constexpr uint8_t kOverlayMarker = 0xfd;

void WriteAggs(CanonicalWriter& w, const AggregateVector& aggs) {
  w.U32(static_cast<uint32_t>(aggs.size()));
  for (const AggregateFunction& f : aggs) {
    w.U8(static_cast<uint8_t>(f.kind));
    w.I32(f.arg);
    w.U8(f.distinct ? 1 : 0);
    // Output labels name the result schema the query asked for; see the
    // header for why they are fingerprinted (unlike relation names).
    w.Str(f.output);
  }
}

/// Bitwise equality of two double vectors (the statistic comparison:
/// the fingerprint distinguishes every value the cost model can, so the
/// drift test must too).
bool BitsEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

void RehashFingerprint(QueryFingerprint* fp) {
  fp->hash = HashBytes(fp->canonical.data(), fp->canonical.size(),
                       /*seed=*/0x243f6a8885a308d3ull);
  fp->hash2 = HashBytes(fp->canonical.data(), fp->canonical.size(),
                        /*seed=*/0x13198a2e03707344ull);
}

SplitFingerprint FingerprintQuerySplitUnhashed(const Query& query) {
  SplitFingerprint split;
  QueryFingerprint& fp = split.structural;
  StatsOverlay& overlay = split.overlay;
  // Typical canonical forms are a few hundred bytes (one 100-relation
  // clique reaches ~60 KiB through its n(n-1)/2 predicate equalities);
  // reserving avoids the early doubling steps.
  fp.canonical.reserve(256);
  CanonicalWriter w(&fp.canonical);

  w.U8(2);  // structural serialization version (1 = pre-split combined)

  // --- Catalog: shape and key structure, no names, no statistics. ---
  const Catalog& catalog = query.catalog();
  overlay.catalog_id = catalog.catalog_id();
  overlay.stats_epoch = catalog.stats_epoch();
  w.U32(static_cast<uint32_t>(catalog.num_relations()));
  w.U32(static_cast<uint32_t>(catalog.num_attributes()));
  overlay.rel_cardinality.reserve(catalog.num_relations());
  for (int r = 0; r < catalog.num_relations(); ++r) {
    const RelationDef& rel = catalog.relation(r);
    overlay.rel_cardinality.push_back(rel.cardinality);
    w.U8(rel.duplicate_free ? 1 : 0);
    w.Set(rel.attributes);
    // Keys in declaration-order-insensitive form: the set of keys is what
    // the key machinery consumes, not the order they were declared in.
    std::vector<AttrSet> keys = rel.keys;
    std::sort(keys.begin(), keys.end());
    w.U32(static_cast<uint32_t>(keys.size()));
    for (AttrSet key : keys) w.Set(key);
  }
  overlay.attr_distinct.reserve(catalog.num_attributes());
  for (int a = 0; a < catalog.num_attributes(); ++a) {
    const AttributeDef& attr = catalog.attribute(a);
    overlay.attr_distinct.push_back(attr.distinct);
    w.I32(attr.relation);
  }

  // --- Top grouping and aggregation vector. ---
  w.Set(query.group_by());
  WriteAggs(w, query.aggregates());
  w.U32(static_cast<uint32_t>(query.final_divisions().size()));
  for (const FinalDivision& div : query.final_divisions()) {
    w.Str(div.output);
    w.I32(div.numerator_slot);
    w.I32(div.denominator_slot);
  }

  // --- Flattened operators: topology, kinds, predicates. ---
  // left_rels/right_rels are the original subtree relation sets, which
  // together with the flattening order encode the input tree's shape —
  // exactly the structure the conflict detector derives its reorderability
  // rules from.
  w.U32(static_cast<uint32_t>(query.ops().size()));
  overlay.op_selectivity.reserve(query.ops().size());
  for (const QueryOp& op : query.ops()) {
    overlay.op_selectivity.push_back(op.selectivity);
    w.U8(static_cast<uint8_t>(op.kind));
    w.Set(op.left_rels);
    w.Set(op.right_rels);
    w.U32(static_cast<uint32_t>(op.predicate.equalities().size()));
    for (const AttrEquality& eq : op.predicate.equalities()) {
      w.I32(eq.left_attr);
      w.I32(eq.right_attr);
    }
    WriteAggs(w, op.groupjoin_aggs);
  }
  return split;
}

SplitFingerprint FingerprintQuerySplit(const Query& query) {
  SplitFingerprint split = FingerprintQuerySplitUnhashed(query);
  RehashFingerprint(&split.structural);
  return split;
}

void AppendOverlay(const StatsOverlay& overlay, std::string* out) {
  CanonicalWriter w(out);
  w.U8(kOverlayMarker);
  w.U32(static_cast<uint32_t>(overlay.rel_cardinality.size()));
  for (double v : overlay.rel_cardinality) w.F64(v);
  w.U32(static_cast<uint32_t>(overlay.attr_distinct.size()));
  for (double v : overlay.attr_distinct) w.F64(v);
  w.U32(static_cast<uint32_t>(overlay.op_selectivity.size()));
  for (double v : overlay.op_selectivity) w.F64(v);
}

bool ParseOverlay(std::string_view bytes, StatsOverlay* out) {
  size_t pos = 0;
  auto read_u32 = [&](uint32_t* v) {
    if (bytes.size() - pos < sizeof(*v)) return false;
    std::memcpy(v, bytes.data() + pos, sizeof(*v));
    pos += sizeof(*v);
    return true;
  };
  auto read_f64s = [&](std::vector<double>* vec) {
    uint32_t n = 0;
    if (!read_u32(&n)) return false;
    if ((bytes.size() - pos) / sizeof(double) < n) return false;
    vec->resize(n);
    if (n > 0) std::memcpy(vec->data(), bytes.data() + pos, n * sizeof(double));
    pos += n * sizeof(double);
    return true;
  };
  if (bytes.empty() || static_cast<uint8_t>(bytes[0]) != kOverlayMarker) {
    return false;
  }
  pos = 1;
  StatsOverlay parsed;
  if (!read_f64s(&parsed.rel_cardinality) ||
      !read_f64s(&parsed.attr_distinct) ||
      !read_f64s(&parsed.op_selectivity) || pos != bytes.size()) {
    return false;
  }
  *out = std::move(parsed);
  return true;
}

bool SameStats(const StatsOverlay& a, const StatsOverlay& b) {
  // Selectivities live on the query's operators, not the catalog, so the
  // epoch hint says nothing about them: always compare.
  if (!BitsEqual(a.op_selectivity, b.op_selectivity)) return false;
  if (a.catalog_id != 0 && a.catalog_id == b.catalog_id &&
      a.stats_epoch == b.stats_epoch) {
    // Same catalog instance at the same epoch: the mutator contract says
    // the catalog statistics cannot have changed. Shapes still must agree
    // (same structural class implies they do).
    return a.rel_cardinality.size() == b.rel_cardinality.size() &&
           a.attr_distinct.size() == b.attr_distinct.size();
  }
  return BitsEqual(a.rel_cardinality, b.rel_cardinality) &&
         BitsEqual(a.attr_distinct, b.attr_distinct);
}

uint64_t OverlayHash(const StatsOverlay& overlay) {
  std::string bytes;
  bytes.reserve(13 + 8 * (overlay.rel_cardinality.size() +
                          overlay.attr_distinct.size() +
                          overlay.op_selectivity.size()));
  AppendOverlay(overlay, &bytes);
  return EncodedOverlayHash(bytes);
}

uint64_t EncodedOverlayHash(std::string_view bytes) {
  return HashBytes(bytes.data(), bytes.size(),
                   /*seed=*/0xa4093822299f31d0ull);
}

QueryFingerprint ComposeFingerprint(const QueryFingerprint& structural,
                                    const StatsOverlay& overlay) {
  QueryFingerprint fp;
  fp.canonical = structural.canonical;
  AppendOverlay(overlay, &fp.canonical);
  RehashFingerprint(&fp);
  return fp;
}

QueryFingerprint FingerprintQuery(const Query& query) {
  SplitFingerprint split = FingerprintQuerySplitUnhashed(query);
  QueryFingerprint fp = std::move(split.structural);
  AppendOverlay(split.overlay, &fp.canonical);
  RehashFingerprint(&fp);
  return fp;
}

}  // namespace eadp
