#include "plangen/plan_serde.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/binio.h"
#include "plangen/plan.h"

namespace eadp {

namespace {

// Enum upper bounds the decoder enforces. Centralized so a new enumerator
// has one place to extend (and the version gets bumped with it).
constexpr uint8_t kMaxPlanOp = static_cast<uint8_t>(PlanOp::kFinalMap);
constexpr uint8_t kMaxAggKind = static_cast<uint8_t>(AggKind::kAvg);
constexpr uint8_t kMaxMapKind = static_cast<uint8_t>(MapExpr::Kind::kConstInt);
constexpr uint8_t kMaxAlgorithm = static_cast<uint8_t>(Algorithm::kIdp);
constexpr int kMaxCacheTier = 2;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Assigns dense indices to distinct payload pointers in first-encounter
/// order. Ref() returns the wire reference: 0 for null, index + 1
/// otherwise — the same first-encounter discipline on a decoded plan
/// reproduces identical indices, which is what makes re-encoding
/// byte-identical.
template <typename T>
class PtrRegistry {
 public:
  uint32_t Ref(const T* p) {
    if (p == nullptr) return 0;
    auto [it, inserted] = index_.try_emplace(p, order_.size());
    if (inserted) order_.push_back(p);
    return static_cast<uint32_t>(it->second) + 1;
  }
  const std::vector<const T*>& order() const { return order_; }

 private:
  std::vector<const T*> order_;
  std::unordered_map<const T*, size_t> index_;
};

/// KeySets dedup by *content*, not pointer: content-equal sets interned
/// separately (by the worker arenas of a parallel build, or reused from a
/// child in another worker's arena) become one table entry, so the blob
/// does not depend on which arena owns which set. The decoder refuses a
/// table with two equal entries, so every accepted key-set table is this
/// canonical one.
class KeySetRegistry {
 public:
  uint32_t Ref(const KeySet* p) {
    if (p == nullptr) return 0;
    auto& chain = index_[p->Hash()];
    for (uint32_t idx : chain) {
      if (*order_[idx] == *p) return idx + 1;
    }
    chain.push_back(static_cast<uint32_t>(order_.size()));
    order_.push_back(p);
    return static_cast<uint32_t>(order_.size());
  }
  const std::vector<const KeySet*>& order() const { return order_; }

 private:
  std::vector<const KeySet*> order_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> index_;
};

void PutSet(std::string* out, Bitset128 s) {
  PutVarint64(out, s.low());
  PutVarint64(out, s.high());
}

void PutStr(std::string* out, const std::string& s) {
  PutLengthPrefixed(out, s);
}

void PutKeySet(std::string* out, const KeySet& ks) {
  PutVarint32(out, static_cast<uint32_t>(ks.size()));
  for (AttrSet key : ks) PutSet(out, key);
}

void PutAggregateFunction(std::string* out, const AggregateFunction& f) {
  PutStr(out, f.output);
  out->push_back(static_cast<char>(f.kind));
  PutZigzag(out, f.arg);
  out->push_back(f.distinct ? 1 : 0);
}

void PutCrossing(std::string* out, const CrossingInfo& ci) {
  PutVarint32(out, static_cast<uint32_t>(ci.op_indices.size()));
  for (int idx : ci.op_indices) PutZigzag(out, idx);
  const auto& eqs = ci.predicate.equalities();
  PutVarint32(out, static_cast<uint32_t>(eqs.size()));
  for (const AttrEquality& eq : eqs) {
    PutZigzag(out, eq.left_attr);
    PutZigzag(out, eq.right_attr);
  }
  PutF64(out, ci.selectivity);
  PutVarint32(out, static_cast<uint32_t>(ci.groupjoin_aggs.size()));
  for (const AggregateFunction& f : ci.groupjoin_aggs) {
    PutAggregateFunction(out, f);
  }
}

void PutDefaults(std::string* out, const std::vector<SymbolicDefault>& v) {
  PutVarint32(out, static_cast<uint32_t>(v.size()));
  for (const SymbolicDefault& d : v) {
    PutStr(out, d.column);
    out->push_back(d.one ? 1 : 0);
  }
}

void PutExecAggs(std::string* out, const std::vector<ExecAggregate>& v) {
  PutVarint32(out, static_cast<uint32_t>(v.size()));
  for (const ExecAggregate& a : v) {
    PutStr(out, a.output);
    out->push_back(static_cast<char>(a.kind));
    PutStr(out, a.arg);
    out->push_back(a.distinct ? 1 : 0);
    PutVarint32(out, static_cast<uint32_t>(a.multipliers.size()));
    for (const std::string& m : a.multipliers) PutStr(out, m);
  }
}

void PutFinalMap(std::string* out, const FinalMapInfo& fm) {
  PutVarint32(out, static_cast<uint32_t>(fm.exprs.size()));
  for (const MapExpr& e : fm.exprs) {
    PutStr(out, e.output);
    out->push_back(static_cast<char>(e.kind));
    PutStr(out, e.arg);
    PutStr(out, e.arg2);
    PutVarint32(out, static_cast<uint32_t>(e.counts.size()));
    for (const std::string& c : e.counts) PutStr(out, c);
    PutZigzag(out, e.const_value);
  }
  PutVarint32(out, static_cast<uint32_t>(fm.output_columns.size()));
  for (const std::string& c : fm.output_columns) PutStr(out, c);
}

void PutFdSet(std::string* out, const FdSet& fds) {
  PutVarint32(out, static_cast<uint32_t>(fds.fds().size()));
  for (const FunctionalDependency& fd : fds.fds()) {
    PutSet(out, fd.lhs);
    PutSet(out, fd.rhs);
  }
}

void PutAggState(std::string* out, const PlanAggState& st) {
  PutVarint32(out, static_cast<uint32_t>(st.slots.size()));
  for (const AggSlot& s : st.slots) {
    PutZigzag(out, s.query_index);
    out->push_back(s.partialized ? 1 : 0);
    PutStr(out, s.partial_column);
    PutZigzag(out, s.home_count);
  }
  PutVarint32(out, static_cast<uint32_t>(st.counts.size()));
  for (const CountColumn& c : st.counts) PutStr(out, c.column);
}

void PutStats(std::string* out, const OptimizeStats& s) {
  PutVarint64(out, s.ccp_count);
  PutVarint64(out, s.plans_built);
  PutVarint64(out, s.table_plans);
  PutVarint64(out, s.table_classes);
  PutF64(out, s.optimize_ms);
  out->push_back(static_cast<char>(s.algorithm));
  out->push_back(s.cache_hit ? 1 : 0);
  PutVarint64(out, s.pruned_candidates);
  PutVarint64(out, s.pruned_existing);
  PutF64(out, s.dp_barrier_wait_ms);
  PutZigzag(out, s.dp_workers);
  out->push_back(static_cast<char>(s.cache_tier));
}

/// Postorder walk with pointer dedup: children precede parents, every
/// node appears exactly once (plans are DAGs — finalization steps and
/// parallel builds share subtrees). Deterministic in the plan structure.
void CollectNodes(PlanPtr root, std::vector<PlanPtr>* order,
                  std::unordered_map<PlanPtr, uint32_t>* index) {
  struct Frame {
    PlanPtr node;
    bool expanded;
  };
  std::vector<Frame> stack;
  stack.push_back({root, false});
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    if (index->count(f.node) != 0) continue;
    if (f.expanded) {
      index->emplace(f.node, static_cast<uint32_t>(order->size()));
      order->push_back(f.node);
    } else {
      stack.push_back({f.node, true});
      if (f.node->right != nullptr) stack.push_back({f.node->right, false});
      if (f.node->left != nullptr) stack.push_back({f.node->left, false});
    }
  }
}

}  // namespace

std::string EncodePlan(const OptimizeResult& result) {
  std::string payload;
  PutStats(&payload, result.stats);
  payload.push_back(result.plan != nullptr ? 1 : 0);

  if (result.plan != nullptr) {
    std::vector<PlanPtr> nodes;
    std::unordered_map<PlanPtr, uint32_t> node_index;
    CollectNodes(result.plan, &nodes, &node_index);

    // Register payloads in node order so table order == first-encounter
    // order (the invariant re-encode byte-identity rests on).
    KeySetRegistry keysets;
    PtrRegistry<CrossingInfo> crossings;
    PtrRegistry<std::vector<SymbolicDefault>> defaults;
    PtrRegistry<std::vector<ExecAggregate>> execaggs;
    PtrRegistry<FinalMapInfo> finalmaps;
    PtrRegistry<FdSet> fdsets;
    PtrRegistry<PlanAggState> aggstates;
    for (PlanPtr n : nodes) {
      keysets.Ref(n->keys_);
      crossings.Ref(n->crossing);
      defaults.Ref(n->left_defaults_);
      defaults.Ref(n->right_defaults_);
      execaggs.Ref(n->group_aggs_);
      finalmaps.Ref(n->final_map_);
      fdsets.Ref(n->fds_);
      aggstates.Ref(n->agg_state_);
    }

    PutVarint32(&payload, static_cast<uint32_t>(keysets.order().size()));
    for (const KeySet* ks : keysets.order()) PutKeySet(&payload, *ks);
    PutVarint32(&payload, static_cast<uint32_t>(crossings.order().size()));
    for (const CrossingInfo* ci : crossings.order()) PutCrossing(&payload, *ci);
    PutVarint32(&payload, static_cast<uint32_t>(defaults.order().size()));
    for (const auto* d : defaults.order()) PutDefaults(&payload, *d);
    PutVarint32(&payload, static_cast<uint32_t>(execaggs.order().size()));
    for (const auto* a : execaggs.order()) PutExecAggs(&payload, *a);
    PutVarint32(&payload, static_cast<uint32_t>(finalmaps.order().size()));
    for (const FinalMapInfo* fm : finalmaps.order()) PutFinalMap(&payload, *fm);
    PutVarint32(&payload, static_cast<uint32_t>(fdsets.order().size()));
    for (const FdSet* f : fdsets.order()) PutFdSet(&payload, *f);
    PutVarint32(&payload, static_cast<uint32_t>(aggstates.order().size()));
    for (const PlanAggState* st : aggstates.order()) PutAggState(&payload, *st);

    PutVarint32(&payload, static_cast<uint32_t>(nodes.size()));
    for (PlanPtr n : nodes) {
      payload.push_back(static_cast<char>(n->op));
      PutSet(&payload, n->rels);
      PutZigzag(&payload, n->relation);
      PutVarint32(&payload,
                  n->left == nullptr ? 0 : node_index.at(n->left) + 1);
      PutVarint32(&payload,
                  n->right == nullptr ? 0 : node_index.at(n->right) + 1);
      PutVarint32(&payload, crossings.Ref(n->crossing));
      PutVarint32(&payload, defaults.Ref(n->left_defaults_));
      PutVarint32(&payload, defaults.Ref(n->right_defaults_));
      PutSet(&payload, n->group_by);
      PutVarint32(&payload, execaggs.Ref(n->group_aggs_));
      PutVarint32(&payload, finalmaps.Ref(n->final_map_));
      PutF64(&payload, n->cardinality);
      PutF64(&payload, n->raw_cardinality);
      PutF64(&payload, n->pregroup_cardinality);
      PutF64(&payload, n->cost);
      PutVarint32(&payload, keysets.Ref(n->keys_));
      payload.push_back(n->duplicate_free ? 1 : 0);
      PutVarint32(&payload, fdsets.Ref(n->fds_));
      PutVarint32(&payload, aggstates.Ref(n->agg_state_));
    }
    PutVarint32(&payload, node_index.at(result.plan) + 1);
  }

  std::string blob;
  blob.reserve(16 + payload.size());
  PutFixed32(&blob, kPlanBlobMagic);
  PutFixed32(&blob, kPlanBlobVersion);
  PutFixed32(&blob, Crc32(payload));
  PutFixed32(&blob, static_cast<uint32_t>(payload.size()));
  blob += payload;
  return blob;
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

namespace {

/// First arena block of a decoded plan, per payload byte. A plan's arena
/// holds its nodes and payload objects, which are larger in memory than on
/// the wire (a node record of ~60 bytes becomes a 192-byte PlanNode, a
/// 3-byte key set a 144-byte KeySet, and each payload object with a
/// destructor carries a 16-byte cleanup record, common/arena.h). The
/// factor covers the plan_cold and serve_churn plans in one block (at most
/// 6.13 bytes per payload byte); an unusual blob that needs more only
/// chains a second block.
constexpr size_t kDecodeArenaBytesPerPayloadByte = 7;
/// Cap on that first block (the DP arena's largest block size): a blob
/// claims its size before any of it parses, so a hostile one must not
/// reserve more up front than an ordinary block.
constexpr size_t kDecodeArenaMaxFirstBlock = size_t{1} << 20;

/// A u8 that must be exactly 0 or 1: anything else is rejected so every
/// accepted blob is in canonical form (re-encode byte-identity would
/// otherwise silently normalize a 2 into a 1).
bool ReadBool(BinReader* r) {
  uint8_t v = r->ReadU8();
  if (v > 1) r->Fail();
  return v == 1;
}

uint8_t ReadEnum(BinReader* r, uint8_t max) {
  uint8_t v = r->ReadU8();
  if (v > max) r->Fail();
  return v;
}

Bitset128 ReadSet(BinReader* r) {
  uint64_t low = r->ReadVarint64();
  uint64_t high = r->ReadVarint64();
  return Bitset128((static_cast<Bitset128::Word>(high) << 64) | low);
}

/// Zigzag varint that must fit a (possibly negative) int.
int ReadInt(BinReader* r) {
  int64_t v = r->ReadZigzag();
  if (v < INT32_MIN || v > INT32_MAX) {
    r->Fail();
    return 0;
  }
  return static_cast<int>(v);
}

/// Element count for a sequence whose elements occupy at least
/// `min_bytes` each on the wire: a count whose elements cannot fit the
/// remaining bytes is structurally impossible, so it is rejected *before*
/// anything is reserved from it. That makes reserving from an accepted
/// count safe: it never exceeds what the bytes could really hold.
uint32_t ReadCount(BinReader* r, size_t min_bytes) {
  uint32_t n = r->ReadVarint32();
  if (n > r->remaining() / min_bytes) r->Fail();
  return r->ok() ? n : 0;
}

std::string ReadStr(BinReader* r) { return r->ReadLengthPrefixed(); }

void ReadStrs(BinReader* r, std::vector<std::string>* out) {
  uint32_t n = ReadCount(r, 1);
  out->reserve(n);
  for (uint32_t i = 0; i < n && r->ok(); ++i) out->push_back(ReadStr(r));
}

void ReadKeySet(BinReader* r, KeySet* out) {
  uint32_t n = ReadCount(r, 2);
  if (r->failed() || n > kMaxKeysPerPlan) {
    r->Fail();
    return;
  }
  std::array<AttrSet, kMaxKeysPerPlan> raw{};
  for (uint32_t i = 0; i < n; ++i) raw[i] = ReadSet(r);
  if (r->failed()) return;
  KeySet ks;
  for (uint32_t i = 0; i < n; ++i) ks.Insert(raw[i]);
  // Canonical-form check: Insert() sorts and minimizes, so a round-tripped
  // KeySet only matches the raw sequence if the encoder wrote it in the
  // canonical (sorted, minimal) form genuine encodes always have.
  if (ks.size() != n) {
    r->Fail();
    return;
  }
  for (uint32_t i = 0; i < n; ++i) {
    if (ks[i] != raw[i]) {
      r->Fail();
      return;
    }
  }
  *out = ks;
}

void ReadCrossing(BinReader* r, CrossingInfo* ci) {
  uint32_t nops = ReadCount(r, 1);
  ci->op_indices.reserve(nops);
  for (uint32_t i = 0; i < nops && r->ok(); ++i) {
    ci->op_indices.push_back(ReadInt(r));
  }
  uint32_t neqs = ReadCount(r, 2);
  std::vector<AttrEquality> eqs;
  eqs.reserve(neqs);
  for (uint32_t i = 0; i < neqs && r->ok(); ++i) {
    AttrEquality eq;
    eq.left_attr = ReadInt(r);
    eq.right_attr = ReadInt(r);
    eqs.push_back(eq);
  }
  ci->predicate = JoinPredicate(std::move(eqs));
  ci->selectivity = r->ReadF64();
  uint32_t naggs = ReadCount(r, 4);
  ci->groupjoin_aggs.reserve(naggs);
  for (uint32_t i = 0; i < naggs && r->ok(); ++i) {
    AggregateFunction& f = ci->groupjoin_aggs.emplace_back();
    f.output = ReadStr(r);
    f.kind = static_cast<AggKind>(ReadEnum(r, kMaxAggKind));
    f.arg = ReadInt(r);
    f.distinct = ReadBool(r);
  }
}

void ReadDefaults(BinReader* r, std::vector<SymbolicDefault>* v) {
  uint32_t n = ReadCount(r, 2);
  v->reserve(n);
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    SymbolicDefault& d = v->emplace_back();
    d.column = ReadStr(r);
    d.one = ReadBool(r);
  }
}

void ReadExecAggs(BinReader* r, std::vector<ExecAggregate>* v) {
  uint32_t n = ReadCount(r, 5);
  v->reserve(n);
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    ExecAggregate& a = v->emplace_back();
    a.output = ReadStr(r);
    a.kind = static_cast<AggKind>(ReadEnum(r, kMaxAggKind));
    a.arg = ReadStr(r);
    a.distinct = ReadBool(r);
    ReadStrs(r, &a.multipliers);
  }
}

void ReadFinalMap(BinReader* r, FinalMapInfo* fm) {
  uint32_t ne = ReadCount(r, 6);
  fm->exprs.reserve(ne);
  for (uint32_t i = 0; i < ne && r->ok(); ++i) {
    MapExpr& e = fm->exprs.emplace_back();
    e.output = ReadStr(r);
    e.kind = static_cast<MapExpr::Kind>(ReadEnum(r, kMaxMapKind));
    e.arg = ReadStr(r);
    e.arg2 = ReadStr(r);
    ReadStrs(r, &e.counts);
    e.const_value = r->ReadZigzag();
  }
  ReadStrs(r, &fm->output_columns);
}

void ReadFdSet(BinReader* r, FdSet* fds) {
  uint32_t n = ReadCount(r, 4);
  fds->Reserve(n);
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    AttrSet lhs = ReadSet(r);
    AttrSet rhs = ReadSet(r);
    fds->Add(lhs, rhs);
  }
}

void ReadAggState(BinReader* r, PlanAggState* st) {
  uint32_t ns = ReadCount(r, 4);
  st->slots.reserve(ns);
  for (uint32_t i = 0; i < ns && r->ok(); ++i) {
    AggSlot& s = st->slots.emplace_back();
    s.query_index = ReadInt(r);
    s.partialized = ReadBool(r);
    s.partial_column = ReadStr(r);
    s.home_count = ReadInt(r);
  }
  uint32_t nc = ReadCount(r, 1);
  st->counts.reserve(nc);
  for (uint32_t i = 0; i < nc && r->ok(); ++i) {
    st->counts.push_back(CountColumn{ReadStr(r)});
  }
}

OptimizeStats ReadStats(BinReader* r) {
  OptimizeStats s;
  s.ccp_count = r->ReadVarint64();
  s.plans_built = r->ReadVarint64();
  s.table_plans = r->ReadVarint64();
  s.table_classes = r->ReadVarint64();
  s.optimize_ms = r->ReadF64();
  s.algorithm = static_cast<Algorithm>(ReadEnum(r, kMaxAlgorithm));
  s.cache_hit = ReadBool(r);
  s.pruned_candidates = r->ReadVarint64();
  s.pruned_existing = r->ReadVarint64();
  s.dp_barrier_wait_ms = r->ReadF64();
  s.dp_workers = ReadInt(r);
  s.cache_tier = ReadEnum(r, kMaxCacheTier);
  return s;
}

/// One decoded payload table. The encoder registers payloads in node
/// order, so a canonical blob references every entry, and references each
/// for the first time in table order; Ref() refuses anything else, which
/// is what keeps encode(decode(blob)) == blob for every accepted blob.
template <typename T>
class DecodedTable {
 public:
  /// Reads the entry count, then each entry with `read_one`, allocated in
  /// `arena`.
  template <typename ReadOne>
  void Read(BinReader* r, Arena& arena, size_t min_entry_bytes,
            ReadOne read_one) {
    uint32_t n = ReadCount(r, min_entry_bytes);
    entries_.reserve(n);
    for (uint32_t i = 0; i < n && r->ok(); ++i) {
      T* entry = arena.New<T>();
      read_one(r, entry);
      entries_.push_back(entry);
    }
  }

  /// Reads a wire reference: 0 = null, else 1-based index. An entry past
  /// the next unreferenced one is out of order (or out of range).
  const T* Ref(BinReader* r) {
    uint32_t ref = r->ReadVarint32();
    if (ref == 0) return nullptr;
    if (ref > entries_.size() || ref > referenced_ + 1) {
      r->Fail();
      return nullptr;
    }
    if (ref == referenced_ + 1) ++referenced_;
    return entries_[ref - 1];
  }

  /// True iff every entry was referenced.
  bool AllReferenced() const { return referenced_ == entries_.size(); }

  const std::vector<const T*>& entries() const { return entries_; }

 private:
  std::vector<const T*> entries_;
  size_t referenced_ = 0;
};

/// True iff two entries of the key-set table are equal. The encoder dedups
/// key sets by content, so a canonical table has none; an open-addressed
/// set over KeySet::Hash keeps the check linear in the table size.
bool HasDuplicateKeySet(const std::vector<const KeySet*>& keysets) {
  if (keysets.size() < 2) return false;
  size_t slots = std::bit_ceil(keysets.size() * 2);
  std::vector<uint32_t> table(slots, 0);  // 0 = empty, else index + 1
  for (uint32_t i = 0; i < keysets.size(); ++i) {
    size_t at = keysets[i]->Hash() & (slots - 1);
    for (; table[at] != 0; at = (at + 1) & (slots - 1)) {
      if (*keysets[table[at] - 1] == *keysets[i]) return true;
    }
    table[at] = i + 1;
  }
  return false;
}

/// True iff the node table is exactly what the encoder's CollectNodes walk
/// emits from the root (the last node): every node reachable, each once,
/// in postorder with the left child first. `children` holds each node's
/// 1-based child references (0 = none), already checked to point at
/// earlier nodes. Emission must follow table order, so "already emitted"
/// is simply an index below `next`.
bool IsCanonicalPostorder(
    const std::vector<std::array<uint32_t, 2>>& children) {
  const uint32_t n = static_cast<uint32_t>(children.size());
  std::vector<uint32_t> stack;  // node index << 1 | expanded
  stack.reserve(3 * static_cast<size_t>(n) + 1);
  stack.push_back((n - 1) << 1);
  uint32_t next = 0;
  while (!stack.empty()) {
    uint32_t frame = stack.back();
    stack.pop_back();
    uint32_t i = frame >> 1;
    if (i < next) continue;
    if ((frame & 1) != 0) {
      if (i != next) return false;
      ++next;
      continue;
    }
    stack.push_back(frame | 1);
    if (children[i][1] != 0) stack.push_back((children[i][1] - 1) << 1);
    if (children[i][0] != 0) stack.push_back((children[i][0] - 1) << 1);
  }
  return next == n;
}

bool FailDecode(std::string* error, const char* message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

bool DecodePlan(std::string_view blob, OptimizeResult* out,
                std::string* error) {
  BinReader header(blob);
  if (header.remaining() < 16) return FailDecode(error, "truncated header");
  if (header.ReadFixed32() != kPlanBlobMagic) {
    return FailDecode(error, "bad magic");
  }
  // Version before checksum: a future format is refused as such, never
  // reported as corruption (and never parsed by guesswork).
  if (header.ReadFixed32() != kPlanBlobVersion) {
    return FailDecode(error, "unsupported format version");
  }
  uint32_t crc = header.ReadFixed32();
  uint32_t payload_len = header.ReadFixed32();
  if (payload_len != blob.size() - 16) {
    return FailDecode(error, "payload length mismatch");
  }
  std::string_view payload = blob.substr(16);
  if (Crc32(payload) != crc) return FailDecode(error, "checksum mismatch");

  BinReader r(payload);
  OptimizeResult result;
  result.stats = ReadStats(&r);
  bool has_plan = ReadBool(&r);
  if (r.failed()) return FailDecode(error, "malformed stats block");

  // One right-sized, untouched block for the whole revived plan.
  result.arena = std::make_shared<PlanArena>(
      std::min(payload.size() * kDecodeArenaBytesPerPayloadByte,
               kDecodeArenaMaxFirstBlock));
  if (has_plan) {
    Arena& arena = result.arena->arena();

    // Key sets are allocated as they are, not interned: the encoder's
    // content dedup already made them distinct, which the check after the
    // tables enforces.
    DecodedTable<KeySet> keysets;
    keysets.Read(&r, arena, 1, ReadKeySet);
    DecodedTable<CrossingInfo> crossings;
    crossings.Read(&r, arena, 11, ReadCrossing);
    DecodedTable<std::vector<SymbolicDefault>> defaults;
    defaults.Read(&r, arena, 1, ReadDefaults);
    DecodedTable<std::vector<ExecAggregate>> execaggs;
    execaggs.Read(&r, arena, 1, ReadExecAggs);
    DecodedTable<FinalMapInfo> finalmaps;
    finalmaps.Read(&r, arena, 2, ReadFinalMap);
    DecodedTable<FdSet> fdsets;
    fdsets.Read(&r, arena, 1, ReadFdSet);
    DecodedTable<PlanAggState> aggstates;
    aggstates.Read(&r, arena, 2, ReadAggState);
    if (r.failed()) return FailDecode(error, "malformed payload table");
    if (HasDuplicateKeySet(keysets.entries())) {
      return FailDecode(error, "duplicate key set");
    }

    // A node record takes at least 49 bytes: 13 one-byte fields, two
    // two-byte sets and four doubles.
    uint32_t node_count = ReadCount(&r, 49);
    if (r.failed() || node_count == 0) {
      return FailDecode(error, "malformed node table");
    }
    std::vector<PlanPtr> nodes;
    nodes.reserve(node_count);
    std::vector<std::array<uint32_t, 2>> children;
    children.reserve(node_count);
    for (uint32_t i = 0; i < node_count && r.ok(); ++i) {
      PlanNode* pn = result.arena->NewNode();
      pn->op = static_cast<PlanOp>(ReadEnum(&r, kMaxPlanOp));
      pn->rels = ReadSet(&r);
      pn->relation = ReadInt(&r);
      // Postorder invariant: children reference strictly earlier records.
      uint32_t left_ref = r.ReadVarint32();
      uint32_t right_ref = r.ReadVarint32();
      if (left_ref > i || right_ref > i) {
        r.Fail();
        break;
      }
      children.push_back({left_ref, right_ref});
      pn->left = left_ref == 0 ? nullptr : nodes[left_ref - 1];
      pn->right = right_ref == 0 ? nullptr : nodes[right_ref - 1];
      // Payload references in the encoder's registration order.
      pn->crossing = crossings.Ref(&r);
      pn->left_defaults_ = defaults.Ref(&r);
      pn->right_defaults_ = defaults.Ref(&r);
      pn->group_by = ReadSet(&r);
      pn->group_aggs_ = execaggs.Ref(&r);
      pn->final_map_ = finalmaps.Ref(&r);
      pn->cardinality = r.ReadF64();
      pn->raw_cardinality = r.ReadF64();
      pn->pregroup_cardinality = r.ReadF64();
      pn->cost = r.ReadF64();
      pn->keys_ = keysets.Ref(&r);
      pn->duplicate_free = ReadBool(&r);
      pn->fds_ = fdsets.Ref(&r);
      pn->agg_state_ = aggstates.Ref(&r);
      nodes.push_back(pn);
    }
    uint32_t root_ref = r.ReadVarint32();
    if (r.failed() || root_ref == 0 || root_ref > nodes.size()) {
      return FailDecode(error, "malformed node table");
    }
    if (!keysets.AllReferenced() || !crossings.AllReferenced() ||
        !defaults.AllReferenced() || !execaggs.AllReferenced() ||
        !finalmaps.AllReferenced() || !fdsets.AllReferenced() ||
        !aggstates.AllReferenced()) {
      return FailDecode(error, "unreferenced payload entry");
    }
    // The root is the walk's last node, and the walk covers the table.
    if (root_ref != nodes.size() || !IsCanonicalPostorder(children)) {
      return FailDecode(error, "node table is not the root's postorder");
    }
    result.plan = nodes[root_ref - 1];
  }
  if (!r.AtEnd()) return FailDecode(error, "trailing bytes");

  *out = std::move(result);
  return true;
}

}  // namespace eadp
