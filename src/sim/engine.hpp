// Deterministic discrete-event engine.
//
// Events are (time, sequence) ordered: two events at the same virtual time
// fire in scheduling order, which — together with the seeded RNG — makes a
// whole simulation a pure function of its inputs. Determinism is what lets
// the test suite assert exact race reports and lets users replay a failing
// interleaving from its seed.
//
// An event is a plain trivially copyable call {fn, ctx, arg}. A call
// scheduled for a later time goes into a binary heap keyed by (time, seq);
// a call scheduled for the current time — about half of all events: every
// coroutine resumption a resolved future bounces through the engine — is
// appended to a same-time FIFO instead, with no heap push or pop. The run
// loop fires heap events at the current time first, then the FIFO, and
// only then advances time. That is exactly (time, seq) order: a heap event
// at time t was scheduled before time reached t, so its seq is smaller than
// that of any FIFO entry, and the FIFO is drained before time moves on.
// Neither queue allocates once it has grown.
//
// The hot producers schedule plain calls directly — coroutine resumptions
// (schedule_resume: fn resumes the handle in ctx) and fabric deliveries
// (net::SimFabric: arg is an in-flight slab slot). The rare producers
// (task start, fault-plane timers and acks, tests) keep the
// std::function overload, which parks the callable in an engine-owned
// free-listed slab and schedules a plain call that runs it.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace dsmr::sim {

/// One node of the engine's live-frame list, embedded in every eager
/// Future coroutine promise (detail::TrackedPromise). Unlinked on frame
/// destruction, so the list holds exactly the frames still suspended.
struct FrameLink {
  FrameLink* prev = nullptr;
  FrameLink* next = nullptr;
  void* frame = nullptr;  ///< the coroutine frame address (for teardown).

  void unlink() {
    if (next == nullptr) return;
    prev->next = next;
    next->prev = prev;
    prev = next = nullptr;
  }
};

class Engine {
 public:
  /// A plain event: called as fn(ctx, arg) when the event fires.
  using Fn = void (*)(void* ctx, std::uint64_t arg);

  Engine() = default;
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return now_; }

  /// Schedules fn(ctx, arg) at absolute virtual time `t` (>= now). The
  /// allocation-free path: `ctx` and `arg` must stay meaningful until the
  /// event fires.
  void schedule_call(Time t, Fn fn, void* ctx, std::uint64_t arg) {
    if (t == now_) {
      ready_.push_back(Call{fn, ctx, arg});
    } else {
      schedule_later(t, Call{fn, ctx, arg});
    }
  }

  /// Schedules the resumption of coroutine `h` at absolute time `t`.
  void schedule_resume(Time t, std::coroutine_handle<> h) {
    schedule_call(t, &resume_frame, h.address(), 0);
  }

  /// Schedules `fn` at absolute virtual time `t` (>= now). The callable is
  /// parked in an engine-owned slab until it fires.
  void schedule_at(Time t, std::function<void()> fn);

  /// Schedules `fn` `delay` ns after the current virtual time.
  void schedule_after(Time delay, std::function<void()> fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Runs until the queue drains or `max_events` fire.
  /// Returns the number of events processed.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  bool idle() const { return heap_.empty() && ready_head_ == ready_.size(); }
  std::uint64_t events_processed() const { return events_processed_; }

  /// The engine currently inside run() on this thread (nullptr outside).
  /// The simulator is single-threaded; this powers coroutine resumption
  /// without threading an engine pointer through every awaitable.
  static Engine* current();

  /// Live-frame list for eager Future<T> coroutines: a frame links itself
  /// in at creation and unlinks on (self-)destruction, so frames still
  /// suspended when the engine is torn down — protocol steps of deadlocked
  /// operations — are destroyed instead of leaked.
  void track_frame(FrameLink& link, std::coroutine_handle<> h) {
    link.frame = h.address();
    link.prev = frames_.prev;
    link.next = &frames_;
    frames_.prev->next = &link;
    frames_.prev = &link;
  }

  /// Coroutine frames still linked (suspended protocol steps). After a
  /// drained run, a non-zero count means blocked operations — the quiescence
  /// watchdog (runtime::World::run) reports it instead of letting the
  /// destructor sweep the frames silently. Walks the list: diagnostic use.
  std::size_t live_frames() const;

 private:
  struct Call {
    Fn fn;
    void* ctx;
    std::uint64_t arg;
  };
  struct Event {
    Time t;
    std::uint64_t seq;
    Call call;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };

  static void resume_frame(void* frame, std::uint64_t) {
    std::coroutine_handle<>::from_address(frame).resume();
  }
  static void run_parked(void* engine, std::uint64_t slot);
  void schedule_later(Time t, Call call);

  std::vector<Event> heap_;  ///< min-heap on (t, seq) via Later.
  /// Calls scheduled at now_, fired from ready_head_ on; emptied whenever
  /// the head reaches the end, so it only ever holds the current time.
  std::vector<Call> ready_;
  std::size_t ready_head_ = 0;
  std::vector<std::function<void()>> parked_;
  std::vector<std::uint32_t> free_parked_;
  FrameLink frames_{&frames_, &frames_, nullptr};  ///< list sentinel.
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
};

}  // namespace dsmr::sim
