// Fixed-size worker pool for embarrassingly parallel analysis jobs.
//
// The simulator itself stays single-threaded (a World's determinism depends
// on it), but whole *runs* are pure functions of (config, seed, perturb) and
// share no state — so sweeps and conformance grids fan out across worlds,
// one world per job, and scale with cores. Engine::current() is
// thread_local, so concurrent worlds never observe each other.
//
// Aggregation stays deterministic by construction: jobs write results into
// pre-sized slots indexed by job id, and callers fold the slots in index
// order after wait_idle() — never in completion order.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dsmr::util {

/// The most OS threads one pool (or one threaded run) starts: far above any
/// real machine this code targets, low enough to keep thread-spawn cost
/// bounded, so a mistyped count cannot start thousands of threads.
inline constexpr int kMaxThreads = 256;

class ThreadPool {
 public:
  /// Spawns `threads` workers (≥1; values above kMaxThreads are clamped).
  explicit ThreadPool(int threads);
  ~ThreadPool();  ///< drains the queue, then joins.

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a job. Jobs must not throw (the simulator's failure mode is
  /// panic/abort, never exceptions).
  void submit(std::function<void()> job);

  /// Blocks until every submitted job has finished executing.
  void wait_idle();

  /// max(1, std::thread::hardware_concurrency) — the CLI default.
  static int hardware_threads();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  std::uint64_t in_flight_ = 0;  ///< queued + currently executing.
  bool stopping_ = false;
};

/// Runs fn(0..count-1), fanning out over `threads` workers when threads > 1.
/// With threads == 1, runs inline on the calling thread — bit-identical to a
/// plain loop, no pool spun up.
void parallel_for(std::uint64_t count, int threads,
                  const std::function<void(std::uint64_t)>& fn);

}  // namespace dsmr::util
