#include "sim/engine.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "util/assert.hpp"

namespace dsmr::sim {

namespace {
thread_local Engine* g_current_engine = nullptr;

/// RAII guard so nested Engine::run calls (used by some unit tests) restore
/// the previous current engine.
struct CurrentEngineScope {
  explicit CurrentEngineScope(Engine* engine) : previous(g_current_engine) {
    g_current_engine = engine;
  }
  ~CurrentEngineScope() { g_current_engine = previous; }
  Engine* previous;
};
}  // namespace

Engine::~Engine() {
  // Destroy frames of operations that never completed (deadlocks, drained
  // simulations). Each destruction unlinks its own node via ~promise_type,
  // so the sweep always takes the list's current head.
  while (frames_.next != &frames_) {
    std::coroutine_handle<>::from_address(frames_.next->frame).destroy();
  }
}

std::size_t Engine::live_frames() const {
  std::size_t n = 0;
  for (const FrameLink* link = frames_.next; link != &frames_; link = link->next) ++n;
  return n;
}

void Engine::schedule_later(Time t, Call call) {
  static_assert(std::is_trivially_copyable_v<Event>);
  DSMR_CHECK_MSG(t > now_, "scheduling into the past: t=" << t << " now=" << now_);
  heap_.push_back(Event{t, next_seq_++, call});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Engine::schedule_at(Time t, std::function<void()> fn) {
  std::uint64_t slot;
  if (free_parked_.empty()) {
    slot = parked_.size();
    parked_.push_back(std::move(fn));
  } else {
    slot = free_parked_.back();
    free_parked_.pop_back();
    parked_[slot] = std::move(fn);
  }
  schedule_call(t, &Engine::run_parked, this, slot);
}

void Engine::run_parked(void* engine, std::uint64_t slot) {
  // Move the callable out before running it: it may park more callables,
  // which can grow (and move) the slab.
  auto& self = *static_cast<Engine*>(engine);
  const std::function<void()> fn = std::move(self.parked_[slot]);
  self.free_parked_.push_back(static_cast<std::uint32_t>(slot));
  fn();
}

std::uint64_t Engine::run(std::uint64_t max_events) {
  CurrentEngineScope scope(this);
  std::uint64_t fired = 0;
  while (fired < max_events) {
    Call call;
    const bool ready = ready_head_ != ready_.size();
    if (!heap_.empty() && (!ready || heap_.front().t == now_)) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      now_ = heap_.back().t;
      call = heap_.back().call;
      heap_.pop_back();
    } else if (ready) {
      call = ready_[ready_head_++];
      if (ready_head_ == ready_.size()) {
        ready_.clear();
        ready_head_ = 0;
      }
    } else {
      break;
    }
    ++fired;
    ++events_processed_;
    call.fn(call.ctx, call.arg);
  }
  return fired;
}

Engine* Engine::current() { return g_current_engine; }

}  // namespace dsmr::sim
