// Top-level process coroutine.
//
// A `Task` is the body of one simulated process (the paper's P0..Pn-1).
// Unlike Future<T> coroutines, Tasks start *lazily*: the World schedules
// their first resumption as a time-0 event so that all process bodies begin
// inside Engine::run and interleave deterministically. Their frames come
// from the block pool like Future frames (util/block_pool.hpp).
#pragma once

#include <coroutine>
#include <functional>
#include <utility>

#include "util/assert.hpp"
#include "util/block_pool.hpp"

namespace dsmr::sim {

class Task {
 public:
  struct promise_type : util::Pooled {
    bool finished = false;
    std::function<void()> on_done;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    /// Suspend at the end so the handle stays valid for done() queries and
    /// for ownership-based destruction by ~Task.
    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        h.promise().finished = true;
        if (h.promise().on_done) h.promise().on_done();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    [[noreturn]] void unhandled_exception() {
      util::panic(__FILE__, __LINE__, "unhandled exception in process task");
    }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> handle) : handle_(handle) {}

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  /// Resumes from the initial suspension point. Called exactly once.
  void start() {
    DSMR_CHECK_MSG(handle_ && !handle_.done(), "starting an invalid task");
    handle_.resume();
  }

  bool valid() const { return static_cast<bool>(handle_); }
  bool done() const { return handle_ && handle_.promise().finished; }

  /// Registers a completion callback (used by the World to count finished
  /// processes and detect deadlock).
  void set_on_done(std::function<void()> cb) {
    DSMR_CHECK(handle_);
    handle_.promise().on_done = std::move(cb);
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace dsmr::sim
