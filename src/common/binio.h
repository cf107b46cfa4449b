// Byte-level binary I/O primitives for the durable encodings: varints, a
// software CRC-32, and a bounds-checked reader.
//
// CanonicalWriter (queries/fingerprint.h) serializes *identity* — fixed
// width, because a fingerprint must distinguish everything the optimizer
// distinguishes and nothing else. The encodings here serialize *storage*
// (plan blobs, persistent-cache records), where compactness and corruption
// detection matter instead: varints shrink the small integers that dominate
// plan payloads, and every durable artifact carries a CRC-32 so a flipped
// bit or torn write is rejected, never decoded.
//
// BinReader is the decoding discipline (grounded in embag-style record
// parsing): every read is bounds-checked against the buffer, failure
// latches (all subsequent reads return zero values), and the caller checks
// ok() once at the end — so a decoder over adversarial bytes can be written
// as straight-line code with no UB on any input, which the bit-flip and
// truncation sweeps of plan_serde_test assert under ASan.

#ifndef EADP_COMMON_BINIO_H_
#define EADP_COMMON_BINIO_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace eadp {

// ---------------------------------------------------------------------------
// Varints (LEB128) and zigzag, appended to a std::string.
// ---------------------------------------------------------------------------

inline void PutVarint64(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

inline void PutVarint32(std::string* out, uint32_t v) {
  PutVarint64(out, v);
}

/// Zigzag maps small negative values to small varints (-1 -> 1, 1 -> 2):
/// plan payloads carry -1 sentinels (null relation, count(*) argument)
/// that plain two's complement would blow up to ten bytes.
inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

inline void PutZigzag(std::string* out, int64_t v) {
  PutVarint64(out, ZigzagEncode(v));
}

inline void PutFixed32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

inline void PutFixed64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

/// Bit-pattern double: storage encodings round-trip every value the cost
/// model can produce exactly, like the fingerprint does.
inline void PutF64(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed64(out, bits);
}

inline void PutLengthPrefixed(std::string* out, std::string_view s) {
  PutVarint64(out, s.size());
  out->append(s.data(), s.size());
}

// ---------------------------------------------------------------------------
// CRC-32 (the reflected 0xEDB88320 polynomial, zlib-compatible), table
// driven. Guarantees: any single-bit error and any error burst confined to
// 32 consecutive bits is detected — which is why the adversarial decode
// tests may flip *any* byte of a blob and assert rejection.
//
// Slicing-by-8: table k maps a byte to its CRC contribution k positions
// before the end of an 8-byte block, so one step folds eight bytes with
// eight independent lookups instead of eight dependent ones. The values
// are those of the bytewise loop (table 0 alone), bit for bit — every
// stored blob, L2 record and wire frame keeps its checksum.
// ---------------------------------------------------------------------------

namespace binio_internal {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

/// Little-endian 32-bit load, independent of the host's byte order.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace binio_internal

/// One-shot CRC-32 of a byte range. Chainable: pass a previous result as
/// `seed` to extend (seed 0 starts a fresh checksum).
inline uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0) {
  const auto& t = binio_internal::kCrc32Tables;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xffffffffu;
  for (; size >= 8; p += 8, size -= 8) {
    uint32_t lo = binio_internal::LoadLe32(p) ^ c;
    uint32_t hi = binio_internal::LoadLe32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

inline uint32_t Crc32(std::string_view s, uint32_t seed = 0) {
  return Crc32(s.data(), s.size(), seed);
}

// ---------------------------------------------------------------------------
// Bounds-checked reader over an immutable byte buffer.
// ---------------------------------------------------------------------------

/// Reads never touch memory past the buffer: a failed read (truncation,
/// malformed varint) latches failed() and every subsequent read returns a
/// zero value, so decoders are straight-line code that checks ok() at
/// checkpoints. Fail() is also the decoder's rejection hook for semantic
/// violations (bad enum value, index out of range).
class BinReader {
 public:
  explicit BinReader(std::string_view data) : data_(data) {}

  bool ok() const { return !failed_; }
  bool failed() const { return failed_; }
  /// Marks the buffer malformed; the position stops advancing.
  void Fail() { failed_ = true; }

  size_t remaining() const { return failed_ ? 0 : data_.size() - pos_; }
  size_t position() const { return pos_; }
  /// True iff every byte was consumed and nothing failed — decoders
  /// require this, so trailing garbage is rejected like truncation.
  bool AtEnd() const { return !failed_ && pos_ == data_.size(); }

  uint8_t ReadU8() {
    if (!Require(1)) return 0;
    return static_cast<uint8_t>(data_[pos_++]);
  }

  uint32_t ReadFixed32() {
    if (!Require(4)) return 0;
    uint32_t v;
    std::memcpy(&v, data_.data() + pos_, 4);
    pos_ += 4;
    return v;
  }

  uint64_t ReadFixed64() {
    if (!Require(8)) return 0;
    uint64_t v;
    std::memcpy(&v, data_.data() + pos_, 8);
    pos_ += 8;
    return v;
  }

  double ReadF64() {
    uint64_t bits = ReadFixed64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  /// LEB128; rejects varints longer than 10 bytes or with set bits beyond
  /// the 64th (non-canonical encodings of overlong inputs).
  uint64_t ReadVarint64() {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (!Require(1)) return 0;
      uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
      uint64_t payload = byte & 0x7fu;
      if (shift == 63 && payload > 1) {  // would overflow 64 bits
        Fail();
        return 0;
      }
      v |= payload << shift;
      if ((byte & 0x80u) == 0) return v;
    }
    Fail();  // 10th byte still had the continuation bit
    return 0;
  }

  /// Varint that must fit 32 bits.
  uint32_t ReadVarint32() {
    uint64_t v = ReadVarint64();
    if (v > 0xffffffffull) {
      Fail();
      return 0;
    }
    return static_cast<uint32_t>(v);
  }

  int64_t ReadZigzag() { return ZigzagDecode(ReadVarint64()); }

  /// A length-prefixed byte string; the length is validated against the
  /// remaining buffer before any copy.
  std::string ReadLengthPrefixed() {
    uint64_t n = ReadVarint64();
    if (failed_ || n > remaining()) {
      Fail();
      return {};
    }
    std::string s(data_.substr(pos_, static_cast<size_t>(n)));
    pos_ += static_cast<size_t>(n);
    return s;
  }

  /// Raw view of the next `n` bytes (no copy); empty view on underrun.
  std::string_view ReadBytes(size_t n) {
    if (!Require(n)) return {};
    std::string_view v = data_.substr(pos_, n);
    pos_ += n;
    return v;
  }

 private:
  bool Require(size_t n) {
    if (failed_ || data_.size() - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace eadp

#endif  // EADP_COMMON_BINIO_H_
