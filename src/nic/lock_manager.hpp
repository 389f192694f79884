// Per-area locks provided by the NIC (paper §III.A: "since NICs are in
// charge with memory management in the public memory space, they can provide
// locks on memory areas").
//
// Grant order is FIFO, which yields the paper's Fig. 3 semantics: an
// operation arriving while an area is held (e.g. a put during an in-flight
// get) is delayed until the holder finishes. Locks also optionally carry a
// release→acquire clock handoff so that user-level locking establishes
// happens-before and properly locked programs are reported race-free.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "clocks/vector_clock.hpp"
#include "mem/public_segment.hpp"
#include "sim/future.hpp"
#include "util/types.hpp"

namespace dsmr::nic {

/// Identifies a lock-holding operation globally: (initiator rank, op id).
using LockToken = std::uint64_t;

constexpr LockToken make_lock_token(Rank rank, std::uint64_t op_id) {
  return (static_cast<LockToken>(static_cast<std::uint32_t>(rank)) << 32) |
         (op_id & 0xffffffffULL);
}

class LockManager {
 public:
  struct Stats {
    std::uint64_t acquisitions = 0;
    std::uint64_t contended = 0;   ///< acquisitions that had to queue.
    std::uint64_t max_queue = 0;   ///< deepest wait queue observed.
  };

  /// Acquires the lock on `area` for `token`. The future resolves when the
  /// lock is granted (immediately when uncontended).
  sim::Future<void> acquire(mem::AreaId area, LockToken token);

  /// Releases the lock; `token` must be the current holder. The next queued
  /// waiter (FIFO) is granted via the engine queue.
  void release(mem::AreaId area, LockToken token);

  bool is_locked(mem::AreaId area) const;
  bool held_by(mem::AreaId area, LockToken token) const;

  /// Current holder token (0 when unlocked). The high 32 bits are the
  /// holder's rank — used for re-entrant grants to the holding rank.
  LockToken holder(mem::AreaId area) const;

  /// Clock handoff (release→acquire happens-before edge): the release joins
  /// the area's handoff clock (detect::hand_off), which later acquirers
  /// receive; null until the first release.
  void set_handoff(mem::AreaId area, const clocks::VectorClock& clock);
  const clocks::VectorClock* handoff(mem::AreaId area) const;

  const Stats& stats() const { return stats_; }

 private:
  struct AreaLock {
    bool held = false;
    LockToken holder = 0;
    std::deque<std::pair<LockToken, sim::Promise<void>>> waiters;
    clocks::VectorClock handoff;  ///< empty until the first release.
  };

  std::unordered_map<mem::AreaId, AreaLock> locks_;
  Stats stats_;
};

}  // namespace dsmr::nic
