// The planning server's wire protocol: length-prefixed binary frames over
// TCP (ROADMAP item 1; DESIGN.md §15).
//
// Frame layout (all fixed-width integers little-endian, matching
// common/binio.h):
//
//   [u32 len][u8 opcode][u32 crc][payload]
//
// `len` counts everything after itself (opcode + crc + payload, so len >=
// 5); `crc` is the CRC-32 of the payload bytes (the zlib polynomial binio
// uses for every durable artifact — a flipped bit on the wire is rejected,
// never decoded). Frames are bounded by kMaxFrameBytes: an oversized
// header cannot be resynchronized past (the stream offset of the next
// frame is untrusted), so the connection closes after an error reply;
// every other malformed frame (bad CRC, unknown opcode, short payload) is
// answered with an error frame and the connection keeps serving — pinned
// by server_test's hostile-frame battery and the fuzz sweep.
//
// Payload encodings reuse the binio idioms end to end: length-prefixed
// strings, varints/zigzag for counts and knobs, F64 bit patterns for
// statistics. Queries travel as the fuzzer's replayable corpus-entry lines
// ("gen <topology> <n> <preset> <seed> : <op>:<subseed>...", see
// queries/mutation.h) — the same (seed, chain) reproducer format
// scripts/fuzz.sh emits, which is what lets production request logs feed
// the fuzz corpus and fuzz reproducers replay against a live server
// (ROADMAP item 5). Plans travel as plangen/plan_serde blobs, bit-identical
// to what an in-process caller would encode.
//
// The codec is exposed at two levels: buffer-level Append/DecodeFrame
// (pure functions over byte strings — what the frame fuzz sweep drives)
// and fd-level Read/WriteFrame for the server and client loops.

#ifndef EADP_SERVER_PROTOCOL_H_
#define EADP_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/binio.h"
#include "plangen/plangen.h"

namespace eadp {

/// Hard ceiling on one frame (len field), requests and responses alike.
/// Plan blobs for the largest generator workloads are tens of kilobytes;
/// 8 MiB leaves two orders of magnitude of headroom while bounding what a
/// hostile length prefix can make the server allocate.
inline constexpr size_t kMaxFrameBytes = 8u << 20;

/// Bytes of frame overhead after the length prefix: opcode + payload CRC.
inline constexpr size_t kFrameHeaderBytes = 1 + 4;

// ---------------------------------------------------------------------------
// Opcodes and error codes.
// ---------------------------------------------------------------------------

/// Request opcodes (client -> server). Responses set the high bit.
enum class Opcode : uint8_t {
  // Requests.
  kOpenSession = 0x01,   ///< LP name + knobs block -> kOk
  kSetStats = 0x02,      ///< LP name + LP spec + varint rel + F64 card -> kOk
  kOptimize = 0x03,      ///< LP name + LP spec -> kPlanBlob, kStatsJson
  kOptimizeBatch = 0x04, ///< LP name + varint n + n×LP spec
                         ///<   -> n×(kPlanBlob, kStatsJson), kBatchDone
  kInvalidateCache = 0x05,  ///< (empty) -> kOk; drops the shared L1
  kStats = 0x06,         ///< LP name (may be empty) -> kStatsJson
  kCloseSession = 0x07,  ///< LP name -> kOk
  kShutdown = 0x08,      ///< (empty) -> kOk, then the server loop stops

  // Responses.
  kOk = 0x81,        ///< empty payload
  kError = 0x82,     ///< u8 ErrorCode + LP message
  kPlanBlob = 0x83,  ///< raw EncodePlan bytes
  kStatsJson = 0x84, ///< UTF-8 JSON document
  kBatchDone = 0x85, ///< varint count of streamed (blob, stats) pairs
};

bool IsRequestOpcode(uint8_t op);

enum class ErrorCode : uint8_t {
  kNone = 0,
  kMalformedFrame = 1,  ///< frame shorter than the header
  kBadOpcode = 2,
  kBadCrc = 3,
  kOversized = 4,       ///< len > max; the connection closes after this
  kBackpressure = 5,    ///< admission queue full — retry later
  kNoSuchSession = 6,
  kSessionExists = 7,
  kBadRequest = 8,      ///< payload undecodable or semantically invalid
  kPlanFailed = 9,      ///< optimizer produced no plan
  kShuttingDown = 10,
};

const char* ErrorCodeName(ErrorCode code);

// ---------------------------------------------------------------------------
// Buffer-level codec (pure; fuzz-sweepable).
// ---------------------------------------------------------------------------

struct Frame {
  uint8_t opcode = 0;
  std::string payload;
};

enum class DecodeStatus {
  kOk,        ///< one frame decoded; *consumed advanced past it
  kNeedMore,  ///< buffer holds a frame prefix; read more bytes
  kTooShort,  ///< len < header size — frame skipped, stream still in sync
  kBadCrc,    ///< payload checksum mismatch — frame skipped, stream in sync
  kOversized, ///< len > max_frame — stream offset untrusted, close the
              ///< connection after the error reply
};

/// Appends one encoded frame to `out`.
void AppendFrame(std::string* out, Opcode opcode, std::string_view payload);

/// Decodes the first frame of `buf`. On kOk fills `*frame`; on every
/// status except kNeedMore/kOversized sets `*consumed` to the bytes to
/// drop from the buffer (the whole malformed frame for kTooShort/kBadCrc,
/// so the caller can reply with an error and keep decoding the stream).
/// kNeedMore and kOversized set *consumed = 0. Never reads past
/// buf.size(); total-function over arbitrary bytes (fuzz-swept).
DecodeStatus DecodeFrame(std::string_view buf, size_t max_frame_bytes,
                         Frame* frame, size_t* consumed);

// ---------------------------------------------------------------------------
// Payload encodings.
// ---------------------------------------------------------------------------

/// Knobs block: versioned so a server can refuse a skewed client cleanly.
/// Encodes every PlannerKnobs field (the plan-identity half of the
/// configuration; execution context, the DP worker count included, never
/// crosses the wire — it is the server's own).
void AppendKnobs(std::string* out, const PlannerKnobs& knobs);

/// Decodes a knobs block; false on version skew, truncation, out-of-range
/// enum values, or planning-effort knobs past the server's bounds
/// (adaptive_exact_relations in [1, 16], at most 8 under kEaAll;
/// idp_block_size in [2, 8]). On failure `*knobs` is untouched.
bool ReadKnobs(BinReader* r, PlannerKnobs* knobs);

struct OpenSessionRequest {
  std::string session;
  PlannerKnobs knobs;
};

struct SetStatsRequest {
  std::string session;
  std::string spec_line;  ///< corpus-entry line naming the query
  uint32_t relation = 0;  ///< relation index within the query
  double cardinality = 0;
};

struct OptimizeRequest {
  std::string session;
  std::string spec_line;
};

struct OptimizeBatchRequest {
  std::string session;
  std::vector<std::string> spec_lines;
};

struct ErrorResponse {
  ErrorCode code = ErrorCode::kNone;
  std::string message;
};

std::string EncodeOpenSession(const OpenSessionRequest& req);
bool DecodeOpenSession(std::string_view payload, OpenSessionRequest* req);

std::string EncodeSetStats(const SetStatsRequest& req);
bool DecodeSetStats(std::string_view payload, SetStatsRequest* req);

std::string EncodeOptimize(const OptimizeRequest& req);
bool DecodeOptimize(std::string_view payload, OptimizeRequest* req);

std::string EncodeOptimizeBatch(const OptimizeBatchRequest& req);
bool DecodeOptimizeBatch(std::string_view payload, OptimizeBatchRequest* req);

std::string EncodeError(ErrorCode code, std::string_view message);
bool DecodeError(std::string_view payload, ErrorResponse* out);

// ---------------------------------------------------------------------------
// fd-level framing (blocking sockets).
// ---------------------------------------------------------------------------

enum class ReadStatus {
  kOk,
  kEof,       ///< clean close between frames
  kTorn,      ///< connection died mid-frame
  kOversized, ///< length prefix exceeded max_frame_bytes
};

/// Reads one frame from `fd` (blocking until a whole frame, EOF, or an
/// error). A frame failing CRC or shorter than its header is returned
/// with status kOk and `*decode` set accordingly — transport succeeded,
/// the *frame* is bad, and the caller decides the reply.
ReadStatus ReadFrame(int fd, size_t max_frame_bytes, Frame* frame,
                     DecodeStatus* decode);

/// Writes one frame; false when the peer is gone (EPIPE etc.).
bool WriteFrame(int fd, Opcode opcode, std::string_view payload);

}  // namespace eadp

#endif  // EADP_SERVER_PROTOCOL_H_
