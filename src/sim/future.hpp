// Future/Promise for the discrete-event simulator, usable both as awaitables
// inside C++20 coroutines and as callback registration points for
// callback-style code (the NIC message handlers).
//
// Design rules:
//  * Single-threaded: no atomics, no locks. A future's shared state carries
//    a plain reference count (detail::StateRef), not a std::shared_ptr.
//  * Completion resumes waiters through Engine::schedule_resume — a plain
//    engine event holding the coroutine handle, never inline — so
//    completion chains cannot recurse unboundedly. Those resumptions land
//    in the engine's same-time FIFO, not its heap.
//  * `Future<T>` is itself a legal coroutine return type: protocol steps in
//    dsmr::nic / dsmr::core are written as eager coroutines returning
//    Future<T>. Their promises link into the engine's live-frame list
//    (detail::TrackedPromise), an intrusive list with no allocation.
//  * Nothing on the protocol path allocates in the steady state: coroutine
//    frames and shared states come from the thread's block pool
//    (util/block_pool.hpp), recycled as the next message's frames.
//  * `co_await` hands the value over without a copy when the awaiting
//    future holds the last reference to it (a response resolved into a
//    Promise and awaited once — the protocol's case); with other holders
//    left it copies, so several waiters on one future each see the value.
//    A future awaited by name is therefore spent: read the co_await result,
//    not value(), afterwards.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "util/block_pool.hpp"

namespace dsmr::sim {

namespace detail {

/// Resumes `h` through the current engine when available; inline otherwise
/// (e.g. when a Promise is resolved after the simulation drained). Waiter
/// frames live until they complete or their engine is torn down (the Engine
/// destroys still-suspended frames); resolving a Promise after the owning
/// Engine/World has been destroyed is not supported — the waiter handles
/// would dangle.
inline void bounce_resume(std::coroutine_handle<> h) {
  if (Engine* engine = Engine::current()) {
    engine->schedule_resume(engine->now(), h);
  } else {
    h.resume();
  }
}

/// The coroutines suspended on one future, in arrival order. Nearly every
/// future has exactly one waiter, which is held inline.
struct Waiters {
  std::coroutine_handle<> first;
  std::vector<std::coroutine_handle<>> more;

  void push(std::coroutine_handle<> h) {
    if (!first) {
      first = h;
    } else {
      more.push_back(h);
    }
  }

  void resume_all() {
    const auto head = std::exchange(first, nullptr);
    if (!head) return;
    bounce_resume(head);
    for (const auto h : std::exchange(more, {})) bounce_resume(h);
  }
};

/// An owning handle on a pool-allocated shared state with a plain
/// (single-threaded) reference count. A moved-from handle is empty.
template <typename State>
class StateRef {
 public:
  static StateRef make() { return StateRef(new State()); }

  StateRef(const StateRef& other) : state_(other.state_) {
    if (state_ != nullptr) ++state_->refs;
  }
  StateRef(StateRef&& other) noexcept : state_(std::exchange(other.state_, nullptr)) {}
  StateRef& operator=(StateRef other) noexcept {
    std::swap(state_, other.state_);
    return *this;
  }
  ~StateRef() {
    if (state_ != nullptr && --state_->refs == 0) delete state_;
  }

  State* operator->() const { return state_; }
  bool sole_owner() const { return state_->refs == 1; }

 private:
  explicit StateRef(State* state) : state_(state) { state_->refs = 1; }
  State* state_;
};

template <typename T>
struct SharedState : util::Pooled {
  std::uint32_t refs = 0;
  std::optional<T> value;
  Waiters waiters;
  std::vector<std::function<void(const T&)>> callbacks;

  bool ready() const { return value.has_value(); }

  void set(T v) {
    DSMR_CHECK_MSG(!value.has_value(), "future resolved twice");
    value.emplace(std::move(v));
    waiters.resume_all();
    auto cbs = std::exchange(callbacks, {});
    for (auto& cb : cbs) cb(*value);
  }
};

/// Shared frame-tracking for eager Future coroutine promises: link into the
/// current engine's live-frame list at creation (`track`), unlink on
/// destruction — which is either self-destruction at co_return or the
/// engine's teardown sweep of deadlocked frames. The frame is a block-pool
/// block (util::Pooled supplies the promise's operator new/delete).
template <typename Promise>
struct TrackedPromise : util::Pooled {
  FrameLink frame_link;

  ~TrackedPromise() { frame_link.unlink(); }

  void track() {
    if (Engine* engine = Engine::current()) {
      engine->track_frame(frame_link, std::coroutine_handle<Promise>::from_promise(
                                          static_cast<Promise&>(*this)));
    }
  }
};

template <>
struct SharedState<void> : util::Pooled {
  std::uint32_t refs = 0;
  bool done = false;
  Waiters waiters;
  std::vector<std::function<void()>> callbacks;

  bool ready() const { return done; }

  void set() {
    DSMR_CHECK_MSG(!done, "future resolved twice");
    done = true;
    waiters.resume_all();
    auto cbs = std::exchange(callbacks, {});
    for (auto& cb : cbs) cb();
  }
};

}  // namespace detail

template <typename T>
class Future;

/// Manual completion source (for callback-style producers).
template <typename T>
class Promise {
 public:
  Promise() : state_(detail::StateRef<detail::SharedState<T>>::make()) {}

  Future<T> future() const;

  void set_value(T v) { state_->set(std::move(v)); }
  bool resolved() const { return state_->ready(); }

 private:
  template <typename U>
  friend class Future;
  detail::StateRef<detail::SharedState<T>> state_;
};

template <>
class Promise<void> {
 public:
  Promise() : state_(detail::StateRef<detail::SharedState<void>>::make()) {}

  Future<void> future() const;

  void set_value() { state_->set(); }
  bool resolved() const { return state_->ready(); }

 private:
  template <typename U>
  friend class Future;
  detail::StateRef<detail::SharedState<void>> state_;
};

template <typename T>
class Future {
 public:
  /// Coroutine machinery: `Future<T> f() { co_return x; }` starts eagerly
  /// and resolves when the coroutine returns. Frames register with the
  /// current engine (detail::TrackedPromise) so deadlocked (never-
  /// completing) operations are destroyed at engine teardown instead of
  /// leaking; the frame itself comes from the block pool.
  struct promise_type : detail::TrackedPromise<promise_type> {
    detail::StateRef<detail::SharedState<T>> state =
        detail::StateRef<detail::SharedState<T>>::make();

    Future get_return_object() {
      this->track();
      return Future(state);
    }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_value(T v) { state->set(std::move(v)); }
    [[noreturn]] void unhandled_exception() {
      util::panic(__FILE__, __LINE__, "unhandled exception in simulation coroutine");
    }
  };

  explicit Future(detail::StateRef<detail::SharedState<T>> state)
      : state_(std::move(state)) {}

  bool ready() const { return state_->ready(); }

  /// Registers a callback to run on completion (immediately if ready).
  void on_ready(std::function<void(const T&)> cb) {
    if (state_->ready()) {
      cb(*state_->value);
    } else {
      state_->callbacks.push_back(std::move(cb));
    }
  }

  /// Value access once ready (also available via co_await).
  const T& value() const {
    DSMR_CHECK_MSG(state_->ready(), "Future::value before completion");
    return *state_->value;
  }

  // Awaitable interface.
  bool await_ready() const { return state_->ready(); }
  void await_suspend(std::coroutine_handle<> h) { state_->waiters.push(h); }
  T await_resume() {
    if (state_.sole_owner()) return std::move(*state_->value);
    return *state_->value;
  }

 private:
  detail::StateRef<detail::SharedState<T>> state_;
};

template <>
class Future<void> {
 public:
  struct promise_type : detail::TrackedPromise<promise_type> {
    detail::StateRef<detail::SharedState<void>> state =
        detail::StateRef<detail::SharedState<void>>::make();

    Future get_return_object() {
      this->track();
      return Future(state);
    }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() { state->set(); }
    [[noreturn]] void unhandled_exception() {
      util::panic(__FILE__, __LINE__, "unhandled exception in simulation coroutine");
    }
  };

  explicit Future(detail::StateRef<detail::SharedState<void>> state)
      : state_(std::move(state)) {}

  bool ready() const { return state_->ready(); }

  void on_ready(std::function<void()> cb) {
    if (state_->ready()) {
      cb();
    } else {
      state_->callbacks.push_back(std::move(cb));
    }
  }

  bool await_ready() const { return state_->ready(); }
  void await_suspend(std::coroutine_handle<> h) { state_->waiters.push(h); }
  void await_resume() {}

 private:
  detail::StateRef<detail::SharedState<void>> state_;
};

template <typename T>
Future<T> Promise<T>::future() const {
  return Future<T>(state_);
}

inline Future<void> Promise<void>::future() const { return Future<void>(state_); }

/// Awaitable virtual-time delay: `co_await Delay{engine, 100}`.
struct Delay {
  Engine& engine;
  Time duration;

  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    engine.schedule_resume(engine.now() + duration, h);
  }
  void await_resume() {}
};

}  // namespace dsmr::sim
