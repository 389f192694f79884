// Per-thread size-class free lists for short-lived fixed-size blocks.
//
// The simulator's protocol path creates and destroys the same few block
// shapes on every message: coroutine frames, future shared states and the
// heap buffers of clocks wider than clocks::VectorClock::kInlineCapacity.
// Recycling them through a free list turns each of those malloc/free pairs
// into a pointer push and pop.
//
// Shape of the pool:
//  * Classes are multiples of kGranule bytes up to kMaxBlock; larger
//    requests go straight to ::operator new / ::operator delete.
//  * Lists are thread-local and unsynchronized: a block released on another
//    thread than the one that allocated it joins the releasing thread's list.
//  * Each class keeps at most kRetainBytes bytes per thread; a release past
//    that bound frees the block, so retention cannot grow the peak footprint
//    by more than kRetainBytes per class in use.
//  * A thread's lists are freed when the thread exits; releases after that
//    (static destructors) free directly.
//  * Under AddressSanitizer a block is poisoned while it sits in a list, so
//    a read through a dangling pointer into a recycled block is reported as
//    use-after-poison instead of silently reading the next owner's data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace dsmr::util {

namespace pool_detail {

inline constexpr std::size_t kGranule = 64;
inline constexpr std::size_t kMaxBlock = 8192;
inline constexpr std::size_t kClasses = kMaxBlock / kGranule;
inline constexpr std::uint32_t kRetainBytes = 64 * 1024;

struct FreeBlock {
  FreeBlock* next;
};

struct Lists {
  FreeBlock* head[kClasses];
  std::uint32_t retained[kClasses];  ///< bytes held per class.
  bool armed;                        ///< the thread-exit drain is registered.
  bool closed;                       ///< the drain ran: release frees directly.
};

inline thread_local constinit Lists t_lists{};

/// Registers the calling thread's exit drain (first retained block).
void arm_drain();

constexpr std::size_t class_of(std::size_t bytes) { return (bytes - 1) / kGranule; }

/// True when `bytes` has a size class (0 wraps around and has none).
constexpr bool pooled_size(std::size_t bytes) { return bytes - 1 < kMaxBlock; }

}  // namespace pool_detail

/// A block of at least `bytes` bytes, aligned for any fundamental type.
inline void* pool_allocate(std::size_t bytes) {
  using namespace pool_detail;
  if (!pooled_size(bytes)) return ::operator new(bytes);
  const std::size_t c = class_of(bytes);
  Lists& lists = t_lists;
  if (FreeBlock* block = lists.head[c]) {
    const std::size_t block_bytes = (c + 1) * kGranule;
    ASAN_UNPOISON_MEMORY_REGION(block, block_bytes);
    lists.head[c] = block->next;
    lists.retained[c] -= static_cast<std::uint32_t>(block_bytes);
    return block;
  }
  return ::operator new((c + 1) * kGranule);
}

/// Returns a block from pool_allocate; `bytes` must be the size it was
/// allocated with.
inline void pool_release(void* block, std::size_t bytes) noexcept {
  using namespace pool_detail;
  if (!pooled_size(bytes)) {
    ::operator delete(block);
    return;
  }
  const std::size_t c = class_of(bytes);
  const std::size_t block_bytes = (c + 1) * kGranule;
  Lists& lists = t_lists;
  if (lists.closed || lists.retained[c] + block_bytes > kRetainBytes) {
    ::operator delete(block);
    return;
  }
  if (!lists.armed) arm_drain();
  auto* node = static_cast<FreeBlock*>(block);
  node->next = lists.head[c];
  lists.head[c] = node;
  lists.retained[c] += static_cast<std::uint32_t>(block_bytes);
  ASAN_POISON_MEMORY_REGION(block, block_bytes);
}

/// Mixin routing a class's (or a coroutine promise's frame's) operator
/// new/delete through the pool.
struct Pooled {
  static void* operator new(std::size_t bytes) { return pool_allocate(bytes); }
  static void operator delete(void* block, std::size_t bytes) noexcept {
    pool_release(block, bytes);
  }
};

}  // namespace dsmr::util
