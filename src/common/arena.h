// Bump-pointer arena allocation.
//
// The plan generators allocate hundreds of thousands of small, immutable
// objects per Optimize() call (plan nodes, interned property payloads) and
// free them all at once when the optimization's result is dropped. A bump
// allocator turns each allocation into a pointer increment, keeps related
// objects dense in memory, and replaces per-object ownership (shared_ptr
// refcount traffic) with a single lifetime: the arena's.
//
// Objects with non-trivial destructors are supported — New() registers a
// cleanup that runs on Reset()/destruction. Each cleanup record sits in
// the arena's blocks just before its object, so registering costs no heap
// allocation (a decoded plan registers ~35 payload objects). The hot path
// should still stick to trivially-destructible types, which cost nothing
// beyond their bytes.
// See docs/DESIGN.md §6 for the plan-memory ownership rules built on top.

#ifndef EADP_COMMON_ARENA_H_
#define EADP_COMMON_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace eadp {

class Arena {
 public:
  /// Eagerly reserves (and touches) the first block: optimizer arenas are
  /// constructed off the hot path, so the initial system allocation and
  /// its page faults happen before the first timed allocation.
  Arena();
  /// Sized, untouched first block of exactly `first_block_bytes` (at least
  /// 1): for an arena whose contents are known up front, such as a decoded
  /// plan, where the eager 16 KiB block would be mostly zero-filled waste.
  /// Later blocks grow as in the eager arena.
  explicit Arena(size_t first_block_bytes);
  ~Arena() { RunCleanups(); }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Raw storage, aligned to `align` (a power of two, at most
  /// alignof(std::max_align_t)). Never returns null.
  void* AllocateBytes(size_t size, size_t align);

  /// Constructs a T in the arena. Non-trivially-destructible types get a
  /// cleanup entry so their destructor runs at Reset()/arena destruction;
  /// trivially-destructible types cost only their bytes.
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    if constexpr (std::is_trivially_destructible_v<T>) {
      return new (AllocateBytes(sizeof(T), alignof(T)))
          T(std::forward<Args>(args)...);
    } else {
      // One bump allocation holds the cleanup record and, right after it,
      // the object. The record is linked only once the object is
      // constructed, so a throwing constructor leaves no dangling entry.
      char* mem = static_cast<char*>(
          AllocateBytes(ObjectOffset<T>() + sizeof(T),
                        std::max(alignof(Cleanup), alignof(T))));
      T* obj = new (mem + ObjectOffset<T>()) T(std::forward<Args>(args)...);
      cleanups_ = new (mem) Cleanup{&Destroy<T>, cleanups_};
      return obj;
    }
  }

  /// Destroys every object and recycles the largest block, so a reused
  /// arena reaches steady state without further system allocations.
  void Reset();

  /// Payload bytes handed out since construction/Reset.
  size_t bytes_used() const { return bytes_used_; }
  /// Total block capacity currently held.
  size_t bytes_reserved() const {
    size_t n = 0;
    for (const Block& b : blocks_) n += b.size;
    return n;
  }
  size_t num_blocks() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t size = 0;
  };
  /// One registered destructor, stored just before its object: newest
  /// first, so RunCleanups destroys in reverse construction order.
  struct Cleanup {
    void (*destroy)(Cleanup*);
    Cleanup* next;
  };
  /// Where a T starts after its Cleanup record.
  template <typename T>
  static constexpr size_t ObjectOffset() {
    return (sizeof(Cleanup) + alignof(T) - 1) & ~(alignof(T) - 1);
  }
  template <typename T>
  static void Destroy(Cleanup* c) {
    std::launder(reinterpret_cast<T*>(reinterpret_cast<char*>(c) +
                                      ObjectOffset<T>()))
        ->~T();
  }

  void RunCleanups();
  void AddBlock(size_t min_size);

  static constexpr size_t kMinBlockSize = 1u << 14;   // 16 KiB
  static constexpr size_t kMaxBlockSize = 1u << 20;   // 1 MiB

  std::vector<Block> blocks_;
  /// Head of the destructor list (newest first), kept in the blocks.
  Cleanup* cleanups_ = nullptr;
  char* ptr_ = nullptr;   ///< bump pointer into the active (last) block
  char* end_ = nullptr;   ///< end of the active block
  size_t next_block_size_ = kMinBlockSize;
  size_t bytes_used_ = 0;
};

}  // namespace eadp

#endif  // EADP_COMMON_ARENA_H_
