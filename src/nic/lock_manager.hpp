// Per-area locks provided by the NIC (paper §III.A: "since NICs are in
// charge with memory management in the public memory space, they can provide
// locks on memory areas").
//
// Grant order is FIFO, which yields the paper's Fig. 3 semantics: an
// operation arriving while an area is held (e.g. a put during an in-flight
// get) is delayed until the holder finishes. Locks also optionally carry a
// release→acquire clock handoff so that user-level locking establishes
// happens-before and properly locked programs are reported race-free.
//
// The table is a flat vector indexed by the segment's dense AreaId, grown
// on first touch; a lock's FIFO is a vector popped at the front (queues are
// at most a few ranks deep), so neither allocates once grown.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "clocks/vector_clock.hpp"
#include "mem/public_segment.hpp"
#include "sim/engine.hpp"
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

  /// Grants the lock on `area` to `token` when it is free and returns true;
  /// returns false, recording nothing, when it is held. The uncontended
  /// half of acquire() without building a future.
  bool try_acquire(mem::AreaId area, LockToken token);

  /// Releases the lock; `token` must be the current holder. The next queued
  /// waiter (FIFO) is granted via the engine queue.
  void release(mem::AreaId area, LockToken token);

  /// Releases `token`'s lock on `area` at virtual time `t` through a plain
  /// engine event — Fig. 3's hold of a served get until its response has
  /// arrived. An area has at most one such release pending: its lock is
  /// held until the release fires.
  void release_at(sim::Engine& engine, sim::Time t, mem::AreaId area, LockToken token);

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
    LockToken timed_release = 0;  ///< release_at's token until it fires.
    std::vector<std::pair<LockToken, sim::Promise<void>>> waiters;  ///< FIFO.
    clocks::VectorClock handoff;  ///< empty until the first release.
  };

  /// The area's lock, growing the table to reach it.
  AreaLock& lock_of(mem::AreaId area);
  /// The area's lock, or nullptr when it was never touched.
  const AreaLock* find(mem::AreaId area) const {
    return area < locks_.size() ? &locks_[area] : nullptr;
  }
  static void fire_timed_release(void* manager, std::uint64_t area);

  std::vector<AreaLock> locks_;  ///< by AreaId.
  Stats stats_;
};

}  // namespace dsmr::nic
