#include "common/arena.h"

#include <algorithm>
#include <cassert>

namespace eadp {

Arena::Arena() {
  AddBlock(kMinBlockSize);
  // Touch every page now: first-write faults belong to construction, not
  // to the first (often timed) allocations.
  std::fill(ptr_, end_, 0);
}

Arena::Arena(size_t first_block_bytes)
    : next_block_size_(std::max<size_t>(first_block_bytes, 1)) {
  AddBlock(next_block_size_);
  // Overflow past the sized block grows like an eager arena.
  next_block_size_ = kMinBlockSize;
}

void* Arena::AllocateBytes(size_t size, size_t align) {
  assert(align != 0 && (align & (align - 1)) == 0 && "align: power of two");
  assert(align <= alignof(std::max_align_t));
  if (size == 0) size = 1;
  uintptr_t p = reinterpret_cast<uintptr_t>(ptr_);
  uintptr_t aligned = (p + (align - 1)) & ~uintptr_t(align - 1);
  if (ptr_ == nullptr ||
      aligned + size > reinterpret_cast<uintptr_t>(end_)) {
    AddBlock(size + align - 1);
    p = reinterpret_cast<uintptr_t>(ptr_);
    aligned = (p + (align - 1)) & ~uintptr_t(align - 1);
  }
  ptr_ = reinterpret_cast<char*>(aligned + size);
  bytes_used_ += size;
  return reinterpret_cast<void*>(aligned);
}

void Arena::AddBlock(size_t min_size) {
  size_t size = std::max(next_block_size_, min_size);
  next_block_size_ = std::min(next_block_size_ * 2, kMaxBlockSize);
  Block block;
  // for_overwrite: a value-initializing make_unique would memset every
  // block, a measurable tax on small optimizations' first allocations.
  block.data = std::make_unique_for_overwrite<char[]>(size);
  block.size = size;
  ptr_ = block.data.get();
  end_ = ptr_ + size;
  blocks_.push_back(std::move(block));
}

void Arena::RunCleanups() {
  // Newest first: later objects may reference earlier ones. The records
  // live in the blocks, which stay allocated until after this walk.
  for (Cleanup* c = cleanups_; c != nullptr; c = c->next) {
    c->destroy(c);
  }
  cleanups_ = nullptr;
}

void Arena::Reset() {
  RunCleanups();
  if (blocks_.empty()) {
    bytes_used_ = 0;
    return;
  }
  // Keep the largest block so a reused arena stops hitting the system
  // allocator once it has grown to its steady-state size.
  auto largest = std::max_element(
      blocks_.begin(), blocks_.end(),
      [](const Block& a, const Block& b) { return a.size < b.size; });
  Block keep = std::move(*largest);
  blocks_.clear();
  ptr_ = keep.data.get();
  end_ = ptr_ + keep.size;
  blocks_.push_back(std::move(keep));
  bytes_used_ = 0;
}

}  // namespace eadp
