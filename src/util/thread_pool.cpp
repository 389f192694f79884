#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "util/assert.hpp"

namespace dsmr::util {

ThreadPool::ThreadPool(int threads) {
  DSMR_REQUIRE(threads >= 1, "thread pool needs at least one worker");
  const int n = std::min(threads, kMaxThreads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    DSMR_CHECK_MSG(!stopping_, "submit on a stopping thread pool");
    queue_.push_back(std::move(job));
    ++in_flight_;
  }
  work_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return in_flight_ == 0; });
}

int ThreadPool::hardware_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained.
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) idle_.notify_all();
    }
  }
}

void parallel_for(std::uint64_t count, int threads,
                  const std::function<void(std::uint64_t)>& fn) {
  if (threads <= 1 || count <= 1) {
    for (std::uint64_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // One range-job per worker pulling indices from a shared counter: O(workers)
  // allocations instead of one heap-allocated closure per index, which for
  // million-run sweeps would materialize the whole queue up-front.
  const int workers = static_cast<int>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(threads), count));
  ThreadPool pool(workers);
  std::atomic<std::uint64_t> next{0};
  for (int w = 0; w < workers; ++w) {
    pool.submit([&fn, &next, count] {
      for (std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed); i < count;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(i);
      }
    });
  }
  pool.wait_idle();
}

}  // namespace dsmr::util
