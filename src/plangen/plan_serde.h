// Versioned, checksummed binary plan encoding: OptimizeResult <-> bytes.
//
// The arena memory model (DESIGN.md §6) is what makes plans serializable
// at all: a plan is a DAG of slim value nodes plus a handful of immutable
// interned payloads, all owned by one arena — no back-pointers, no
// external state, no destructor order. The encoding exploits exactly
// that shape:
//
//   * nodes are written in postorder as *records with index references* —
//     the serialized form of an arena-relative offset: child and payload
//     fields hold small table indices (0 = null, else index + 1) instead
//     of pointers, so decode is one fresh PlanArena plus an index fix-up
//     pass, never a pointer relocation;
//   * every interned payload (CrossingInfo, KeySet, FdSet, PlanAggState,
//     outer-join default vectors, grouping aggregate vectors, final maps)
//     is written once into a per-kind dedup table, in first-encounter
//     order of the node walk — shared payloads stay shared through a
//     round trip, and n plans of one query class don't multiply their
//     common payloads on disk;
//   * doubles travel by bit pattern, so cost/cardinality are *bit*-equal
//     after decode — the property the differential round-trip battery
//     (plan_serde_test) pins via explain-JSON string equality.
//
// Self-containment and safety: a blob carries magic, format version, a
// CRC-32 over the payload and the payload length. The decoder checks the
// version *before* the checksum (a format bump refuses cleanly instead of
// reading garbage), verifies the CRC (any single-byte corruption is
// caught), and then parses with a bounds-checked reader that validates
// every enum, every count and every index — arbitrary bytes are rejected
// with an error message, never undefined behavior (bit-flip/truncation
// sweeps under ASan pin this).
//
// Determinism: encoding is a pure function of the plan structure —
// encode(decode(blob)) == blob byte-for-byte, for every blob the decoder
// accepts: it refuses any structure the encoder would not have written (a
// payload entry no node references or first referenced out of order, a
// duplicate key set, a node outside the root's postorder), which is
// what would otherwise re-encode differently. This is what makes blobs
// usable as cache values across processes (plangen/persistent_cache.h)
// and, later, as wire format for shipping plans between optimizer
// daemons.

#ifndef EADP_PLANGEN_PLAN_SERDE_H_
#define EADP_PLANGEN_PLAN_SERDE_H_

#include <string>
#include <string_view>

#include "plangen/plangen.h"

namespace eadp {

/// First bytes of every plan blob ("EPLN" little-endian).
inline constexpr uint32_t kPlanBlobMagic = 0x4e4c5045u;
/// Current format version. Bump on any layout change; decoders refuse
/// other versions cleanly (no cross-version guessing).
inline constexpr uint32_t kPlanBlobVersion = 1;

/// Serializes `result` (stats + plan tree; the plan may be null for an
/// unsatisfiable result) into a self-contained blob. Deterministic:
/// structurally identical results encode to identical bytes.
std::string EncodePlan(const OptimizeResult& result);

/// Decodes a blob produced by EncodePlan into a fresh PlanArena, sized
/// from the payload length. On success returns true and fills `*out`
/// (plan null iff encoded as null).
/// On any malformed input — wrong magic, version skew, checksum mismatch,
/// truncation, out-of-range enum/index/count, trailing bytes — returns
/// false, leaves `*out` untouched, and (if non-null) sets `*error` to a
/// short diagnostic. Never exhibits UB regardless of input bytes.
bool DecodePlan(std::string_view blob, OptimizeResult* out,
                std::string* error = nullptr);

}  // namespace eadp

#endif  // EADP_PLANGEN_PLAN_SERDE_H_
