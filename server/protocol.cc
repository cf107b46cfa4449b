#include "server/protocol.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

namespace eadp {

bool IsRequestOpcode(uint8_t op) {
  return op >= static_cast<uint8_t>(Opcode::kOpenSession) &&
         op <= static_cast<uint8_t>(Opcode::kShutdown);
}

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone:
      return "none";
    case ErrorCode::kMalformedFrame:
      return "malformed-frame";
    case ErrorCode::kBadOpcode:
      return "bad-opcode";
    case ErrorCode::kBadCrc:
      return "bad-crc";
    case ErrorCode::kOversized:
      return "oversized";
    case ErrorCode::kBackpressure:
      return "backpressure";
    case ErrorCode::kNoSuchSession:
      return "no-such-session";
    case ErrorCode::kSessionExists:
      return "session-exists";
    case ErrorCode::kBadRequest:
      return "bad-request";
    case ErrorCode::kPlanFailed:
      return "plan-failed";
    case ErrorCode::kShuttingDown:
      return "shutting-down";
  }
  return "?";
}

void AppendFrame(std::string* out, Opcode opcode, std::string_view payload) {
  PutFixed32(out, static_cast<uint32_t>(kFrameHeaderBytes + payload.size()));
  out->push_back(static_cast<char>(opcode));
  PutFixed32(out, Crc32(payload));
  out->append(payload.data(), payload.size());
}

DecodeStatus DecodeFrame(std::string_view buf, size_t max_frame_bytes,
                         Frame* frame, size_t* consumed) {
  *consumed = 0;
  if (buf.size() < 4) return DecodeStatus::kNeedMore;
  uint32_t len;
  std::memcpy(&len, buf.data(), 4);
  if (len > max_frame_bytes) return DecodeStatus::kOversized;
  if (buf.size() < 4 + static_cast<size_t>(len)) return DecodeStatus::kNeedMore;
  if (len < kFrameHeaderBytes) {
    // The stream stays in sync (we know where the next frame starts);
    // only this frame is unusable.
    *consumed = 4 + len;
    return DecodeStatus::kTooShort;
  }
  std::string_view body = buf.substr(4, len);
  uint32_t crc;
  std::memcpy(&crc, body.data() + 1, 4);
  std::string_view payload = body.substr(kFrameHeaderBytes);
  *consumed = 4 + len;
  if (Crc32(payload) != crc) return DecodeStatus::kBadCrc;
  frame->opcode = static_cast<uint8_t>(body[0]);
  frame->payload.assign(payload.data(), payload.size());
  return DecodeStatus::kOk;
}

// ---------------------------------------------------------------------------
// Payload encodings.
// ---------------------------------------------------------------------------

namespace {

/// Version byte of the knobs block; bump on any layout change so skewed
/// clients are refused cleanly instead of mis-parsed. Version 2 dropped
/// GOO's merge budget and the DP thread count; version 3 dropped the
/// FD-tracking flag and IDP's inner policy.
constexpr uint8_t kKnobsVersion = 3;

/// The largest adaptive_exact_relations a kEaAll session may ask for.
/// EA-All keeps every tree and grows about 10x per relation; n = 8 is the
/// largest size the paper's figures run it at (Fig. 16).
constexpr int kMaxEaAllExactRelations = 8;

constexpr uint8_t kMaxAlgorithm = static_cast<uint8_t>(Algorithm::kIdp);

bool ReadAlgorithm(BinReader* r, Algorithm* out) {
  uint8_t v = r->ReadU8();
  if (r->failed() || v > kMaxAlgorithm) return false;
  *out = static_cast<Algorithm>(v);
  return true;
}

bool ReadBool(BinReader* r, bool* out) {
  uint8_t v = r->ReadU8();
  if (r->failed() || v > 1) return false;
  *out = v != 0;
  return true;
}

bool ReadI32(BinReader* r, int* out) {
  int64_t v = r->ReadZigzag();
  if (r->failed() || v < INT32_MIN || v > INT32_MAX) return false;
  *out = static_cast<int>(v);
  return true;
}

}  // namespace

void AppendKnobs(std::string* out, const PlannerKnobs& knobs) {
  out->push_back(static_cast<char>(kKnobsVersion));
  out->push_back(static_cast<char>(knobs.algorithm));
  PutF64(out, knobs.h2_tolerance);
  out->push_back(knobs.top_grouping_elimination ? 1 : 0);
  out->push_back(knobs.prune_without_keys ? 1 : 0);
  out->push_back(knobs.prune_without_cardinality ? 1 : 0);
  out->push_back(knobs.full_fd_dominance ? 1 : 0);
  PutZigzag(out, knobs.adaptive_exact_relations);
  PutZigzag(out, knobs.idp_block_size);
}

bool ReadKnobs(BinReader* r, PlannerKnobs* knobs) {
  if (r->ReadU8() != kKnobsVersion || r->failed()) return false;
  PlannerKnobs k;
  double h2 = 0;
  if (!ReadAlgorithm(r, &k.algorithm)) return false;
  h2 = r->ReadF64();
  // Reject NaN/inf tolerances: they would poison cost comparisons.
  if (r->failed() || !(h2 > 0) || !(h2 < 1e9)) return false;
  k.h2_tolerance = h2;
  if (!ReadBool(r, &k.top_grouping_elimination) ||
      !ReadBool(r, &k.prune_without_keys) ||
      !ReadBool(r, &k.prune_without_cardinality) ||
      !ReadBool(r, &k.full_fd_dominance) ||
      !ReadI32(r, &k.adaptive_exact_relations) ||
      !ReadI32(r, &k.idp_block_size)) {
    return false;
  }
  // Bound the planning-effort knobs to sane server-side ranges: a hostile
  // client must not be able to request unbounded exact DP.
  if (k.adaptive_exact_relations < 1 || k.adaptive_exact_relations > 16 ||
      k.idp_block_size < 2 || k.idp_block_size > 8 ||
      (k.algorithm == Algorithm::kEaAll &&
       k.adaptive_exact_relations > kMaxEaAllExactRelations)) {
    return false;
  }
  *knobs = k;
  return true;
}

std::string EncodeOpenSession(const OpenSessionRequest& req) {
  std::string out;
  PutLengthPrefixed(&out, req.session);
  AppendKnobs(&out, req.knobs);
  return out;
}

bool DecodeOpenSession(std::string_view payload, OpenSessionRequest* req) {
  BinReader r(payload);
  OpenSessionRequest parsed;
  parsed.session = r.ReadLengthPrefixed();
  if (r.failed() || parsed.session.empty() || parsed.session.size() > 256) {
    return false;
  }
  if (!ReadKnobs(&r, &parsed.knobs) || !r.AtEnd()) return false;
  *req = std::move(parsed);
  return true;
}

std::string EncodeSetStats(const SetStatsRequest& req) {
  std::string out;
  PutLengthPrefixed(&out, req.session);
  PutLengthPrefixed(&out, req.spec_line);
  PutVarint32(&out, req.relation);
  PutF64(&out, req.cardinality);
  return out;
}

bool DecodeSetStats(std::string_view payload, SetStatsRequest* req) {
  BinReader r(payload);
  SetStatsRequest parsed;
  parsed.session = r.ReadLengthPrefixed();
  parsed.spec_line = r.ReadLengthPrefixed();
  parsed.relation = r.ReadVarint32();
  parsed.cardinality = r.ReadF64();
  if (!r.AtEnd() || parsed.session.empty() || parsed.spec_line.empty()) {
    return false;
  }
  if (!(parsed.cardinality >= 1) || !(parsed.cardinality < 1e15)) {
    return false;  // finite, positive — the catalog invariant
  }
  *req = std::move(parsed);
  return true;
}

std::string EncodeOptimize(const OptimizeRequest& req) {
  std::string out;
  PutLengthPrefixed(&out, req.session);
  PutLengthPrefixed(&out, req.spec_line);
  return out;
}

bool DecodeOptimize(std::string_view payload, OptimizeRequest* req) {
  BinReader r(payload);
  OptimizeRequest parsed;
  parsed.session = r.ReadLengthPrefixed();
  parsed.spec_line = r.ReadLengthPrefixed();
  if (!r.AtEnd() || parsed.session.empty() || parsed.spec_line.empty()) {
    return false;
  }
  *req = std::move(parsed);
  return true;
}

std::string EncodeOptimizeBatch(const OptimizeBatchRequest& req) {
  std::string out;
  PutLengthPrefixed(&out, req.session);
  PutVarint64(&out, req.spec_lines.size());
  for (const std::string& line : req.spec_lines) {
    PutLengthPrefixed(&out, line);
  }
  return out;
}

bool DecodeOptimizeBatch(std::string_view payload,
                         OptimizeBatchRequest* req) {
  BinReader r(payload);
  OptimizeBatchRequest parsed;
  parsed.session = r.ReadLengthPrefixed();
  uint64_t n = r.ReadVarint64();
  // Count bound: each line costs at least one length byte, so any count
  // beyond the payload size is a lie; 4096 bounds the honest case.
  if (r.failed() || parsed.session.empty() || n > 4096 || n > r.remaining()) {
    return false;
  }
  parsed.spec_lines.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    parsed.spec_lines.push_back(r.ReadLengthPrefixed());
    if (r.failed() || parsed.spec_lines.back().empty()) return false;
  }
  if (!r.AtEnd()) return false;
  *req = std::move(parsed);
  return true;
}

std::string EncodeError(ErrorCode code, std::string_view message) {
  std::string out;
  out.push_back(static_cast<char>(code));
  PutLengthPrefixed(&out, message);
  return out;
}

bool DecodeError(std::string_view payload, ErrorResponse* out) {
  BinReader r(payload);
  uint8_t code = r.ReadU8();
  std::string message = r.ReadLengthPrefixed();
  if (!r.AtEnd() || code > static_cast<uint8_t>(ErrorCode::kShuttingDown)) {
    return false;
  }
  out->code = static_cast<ErrorCode>(code);
  out->message = std::move(message);
  return true;
}

// ---------------------------------------------------------------------------
// fd-level framing.
// ---------------------------------------------------------------------------

namespace {

/// Reads exactly `n` bytes; 0 = ok, 1 = clean EOF before any byte,
/// -1 = error or EOF mid-read.
int ReadFull(int fd, char* dst, size_t n) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::read(fd, dst + got, n - got);
    if (r > 0) {
      got += static_cast<size_t>(r);
      continue;
    }
    if (r == 0) return got == 0 ? 1 : -1;
    if (errno == EINTR) continue;
    return -1;
  }
  return 0;
}

bool WriteAll(int fd, const char* src, size_t n) {
  size_t put = 0;
  while (put < n) {
    // MSG_NOSIGNAL: a peer that closed mid-reply must surface as EPIPE,
    // not kill the server with SIGPIPE.
    ssize_t w = ::send(fd, src + put, n - put, MSG_NOSIGNAL);
    if (w > 0) {
      put += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

ReadStatus ReadFrame(int fd, size_t max_frame_bytes, Frame* frame,
                     DecodeStatus* decode) {
  char len_buf[4];
  int r = ReadFull(fd, len_buf, 4);
  if (r == 1) return ReadStatus::kEof;
  if (r != 0) return ReadStatus::kTorn;
  uint32_t len;
  std::memcpy(&len, len_buf, 4);
  if (len > max_frame_bytes) return ReadStatus::kOversized;
  std::string body(len, '\0');
  if (len > 0 && ReadFull(fd, body.data(), len) != 0) {
    return ReadStatus::kTorn;
  }
  if (len < kFrameHeaderBytes) {
    *decode = DecodeStatus::kTooShort;
    return ReadStatus::kOk;
  }
  uint32_t crc;
  std::memcpy(&crc, body.data() + 1, 4);
  std::string_view payload(body.data() + kFrameHeaderBytes,
                           body.size() - kFrameHeaderBytes);
  if (Crc32(payload) != crc) {
    *decode = DecodeStatus::kBadCrc;
    return ReadStatus::kOk;
  }
  frame->opcode = static_cast<uint8_t>(body[0]);
  frame->payload.assign(payload.data(), payload.size());
  *decode = DecodeStatus::kOk;
  return ReadStatus::kOk;
}

bool WriteFrame(int fd, Opcode opcode, std::string_view payload) {
  std::string buf;
  buf.reserve(4 + kFrameHeaderBytes + payload.size());
  AppendFrame(&buf, opcode, payload);
  return WriteAll(fd, buf.data(), buf.size());
}

}  // namespace eadp
