// Small fixed-capacity bitsets used throughout the optimizer.
//
// The plan generator manipulates sets of relations and sets of attributes.
// Queries in this library are bounded to 128 relations and 128 attributes
// per "attribute universe", which keeps both kinds of sets in a single
// 128-bit word (`unsigned __int128`). This is the same representation
// DPhyp-style enumerators use in practice — subset enumeration,
// neighborhood computation and csg-cmp-pair counting all reduce to a
// handful of bit tricks — and the double-word carry/borrow arithmetic those
// tricks need ("lowest bit", "next subset") compiles to two or three
// instructions on every 64-bit target. The 128-bit capacity is what lets
// the large-query subsystem (plangen/large_query.h) represent 100-relation
// queries in the same plan structures as the exact enumeration.

#ifndef EADP_COMMON_BITSET_H_
#define EADP_COMMON_BITSET_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/hash.h"

// The whole library leans on C++20 <bit> (std::popcount, std::countr_zero).
// Guard explicitly: under an older -std= the errors otherwise surface as
// dozens of confusing "not a member of std" failures across every TU.
#if !defined(__cpp_lib_bitops) || __cpp_lib_bitops < 201907L
#error "eadp requires C++20 bit operations; compile with -std=c++20 or newer"
#endif
// The 128-bit storage relies on the GCC/Clang extension type.
#if !defined(__SIZEOF_INT128__)
#error "eadp requires the __int128 extension (GCC or Clang on a 64-bit target)"
#endif

namespace eadp {

/// Number of elements a Bitset128 can hold.
inline constexpr int kBitsetCapacity = 128;

/// A set over the universe {0, ..., 127}, stored in one 128-bit word.
///
/// Used both for sets of relation indices (`RelSet`) and sets of attribute
/// indices (`AttrSet`). All operations are O(1) except the iteration helpers,
/// which are O(popcount).
class Bitset128 {
 public:
  using Word = unsigned __int128;

  constexpr Bitset128() : bits_(0) {}
  constexpr explicit Bitset128(Word bits) : bits_(bits) {}

  /// The set {i}.
  static constexpr Bitset128 Single(int i) {
    assert(i >= 0 && i < kBitsetCapacity);
    return Bitset128(Word{1} << i);
  }

  /// The set {0, ..., n-1}.
  static constexpr Bitset128 FirstN(int n) {
    assert(n >= 0 && n <= kBitsetCapacity);
    return n == kBitsetCapacity ? Bitset128(~Word{0})
                                : Bitset128((Word{1} << n) - 1);
  }

  static constexpr Bitset128 Empty() { return Bitset128(); }

  constexpr Word bits() const { return bits_; }
  /// The two 64-bit halves.
  constexpr uint64_t low() const { return static_cast<uint64_t>(bits_); }
  constexpr uint64_t high() const { return static_cast<uint64_t>(bits_ >> 64); }

  /// Mixed (not identity) 64-bit content hash: the sets of one query
  /// differ in a few low bits, which identity hashing would pile into a
  /// handful of buckets. The single definition all hash tables keyed on
  /// bitsets share (DpTable, the builder interners, KeySet::Hash).
  ///
  /// The low word enters the final mixer via addition rather than its own
  /// mix round; audited for the n > 64 regime (sets differing only in bits
  /// 64–127, subset families straddling the word boundary) and measured
  /// indistinguishable from an ideal hash — Mix64(high) decorrelates the
  /// high word before the sum and the outer Mix64 avalanches it, and a
  /// second round bought nothing. bitset_test (Bitset128Hash.*) pins the
  /// bucket distribution.
  constexpr uint64_t Hash() const { return Mix64(low() + Mix64(high())); }

  /// Ready-made functor for unordered containers keyed on bitsets.
  struct Hasher {
    size_t operator()(Bitset128 s) const {
      return static_cast<size_t>(s.Hash());
    }
  };

  constexpr bool empty() const { return bits_ == 0; }
  constexpr int Count() const {
    return std::popcount(low()) + std::popcount(high());
  }

  constexpr bool Contains(int i) const { return (bits_ >> i) & 1; }
  constexpr bool ContainsAll(Bitset128 other) const {
    return (bits_ & other.bits_) == other.bits_;
  }
  constexpr bool Intersects(Bitset128 other) const {
    return (bits_ & other.bits_) != 0;
  }
  constexpr bool IsSubsetOf(Bitset128 other) const {
    return other.ContainsAll(*this);
  }

  constexpr Bitset128 Union(Bitset128 o) const {
    return Bitset128(bits_ | o.bits_);
  }
  constexpr Bitset128 Intersect(Bitset128 o) const {
    return Bitset128(bits_ & o.bits_);
  }
  constexpr Bitset128 Minus(Bitset128 o) const {
    return Bitset128(bits_ & ~o.bits_);
  }

  constexpr void Add(int i) { bits_ |= Word{1} << i; }
  constexpr void Remove(int i) { bits_ &= ~(Word{1} << i); }
  constexpr void UnionWith(Bitset128 o) { bits_ |= o.bits_; }

  /// Index of the lowest set bit. Undefined on the empty set.
  constexpr int Lowest() const {
    assert(!empty());
    uint64_t lo = low();
    return lo != 0 ? std::countr_zero(lo) : 64 + std::countr_zero(high());
  }

  /// Index of the highest set bit. Undefined on the empty set.
  constexpr int Highest() const {
    assert(!empty());
    uint64_t hi = high();
    return hi != 0 ? 127 - std::countl_zero(hi) : 63 - std::countl_zero(low());
  }

  /// The set containing only the lowest element. Undefined on the empty set.
  constexpr Bitset128 LowestBit() const {
    assert(!empty());
    return Bitset128(bits_ & (~bits_ + 1));
  }

  /// All elements strictly below i: {0, ..., i-1}.
  static constexpr Bitset128 Below(int i) { return FirstN(i); }

  friend constexpr bool operator==(Bitset128 a, Bitset128 b) {
    return a.bits_ == b.bits_;
  }
  friend constexpr bool operator!=(Bitset128 a, Bitset128 b) {
    return a.bits_ != b.bits_;
  }
  /// Arbitrary total order (by word value); used for map keys.
  friend constexpr bool operator<(Bitset128 a, Bitset128 b) {
    return a.bits_ < b.bits_;
  }

  /// Renders as e.g. "{0,3,5}".
  std::string ToString() const;

 private:
  Word bits_;
};

using RelSet = Bitset128;
using AttrSet = Bitset128;

/// Iterates over the elements of a Bitset128 in increasing order.
///
///   for (int i : BitsOf(set)) { ... }
class BitsOf {
 public:
  explicit BitsOf(Bitset128 s) : bits_(s.bits()) {}

  class Iterator {
   public:
    explicit Iterator(Bitset128::Word bits) : bits_(bits) {}
    int operator*() const { return Bitset128(bits_).Lowest(); }
    Iterator& operator++() {
      bits_ &= bits_ - 1;
      return *this;
    }
    bool operator!=(const Iterator& o) const { return bits_ != o.bits_; }

   private:
    Bitset128::Word bits_;
  };

  Iterator begin() const { return Iterator(bits_); }
  Iterator end() const { return Iterator(0); }

 private:
  Bitset128::Word bits_;
};

/// Enumerates all non-empty proper-or-improper subsets of `super` in
/// increasing word order. Standard "subset of a mask" trick:
///
///   for (Bitset128 s : SubsetsOf(super)) { ... }
///
/// Yields 2^|super| - 1 sets (the empty set is skipped).
class SubsetsOf {
 public:
  using Word = Bitset128::Word;

  explicit SubsetsOf(Bitset128 super) : mask_(super.bits()) {}

  class Iterator {
   public:
    Iterator(Word sub, Word mask, bool done)
        : sub_(sub), mask_(mask), done_(done) {}
    Bitset128 operator*() const { return Bitset128(sub_); }
    Iterator& operator++() {
      if (sub_ == mask_) {
        done_ = true;
      } else {
        sub_ = (sub_ - mask_) & mask_;
      }
      return *this;
    }
    bool operator!=(const Iterator& o) const {
      return done_ != o.done_ || (!done_ && sub_ != o.sub_);
    }

   private:
    Word sub_;
    Word mask_;
    bool done_;
  };

  Iterator begin() const {
    if (mask_ == 0) return end();
    Word first = (0 - mask_) & mask_;  // lowest bit of mask
    return Iterator(first, mask_, false);
  }
  Iterator end() const { return Iterator(0, mask_, true); }

 private:
  Word mask_;
};

}  // namespace eadp

#endif  // EADP_COMMON_BITSET_H_
