#include "util/block_pool.hpp"

namespace dsmr::util::pool_detail {

namespace {

/// Frees the thread's retained blocks when the thread exits, then closes
/// its lists so later releases free directly.
struct Drain {
  bool armed = false;
  ~Drain() {
    Lists& lists = t_lists;
    for (std::size_t c = 0; c < kClasses; ++c) {
      while (FreeBlock* block = lists.head[c]) {
        ASAN_UNPOISON_MEMORY_REGION(block, (c + 1) * kGranule);
        lists.head[c] = block->next;
        ::operator delete(block);
      }
      lists.retained[c] = 0;
    }
    lists.closed = true;
  }
};

thread_local Drain t_drain;

}  // namespace

void arm_drain() {
  t_drain.armed = true;  // the first use constructs it and registers ~Drain.
  t_lists.armed = true;
}

}  // namespace dsmr::util::pool_detail
