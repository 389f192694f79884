#include "nic/lock_manager.hpp"

#include <algorithm>

#include "detect/transitions.hpp"
#include "util/assert.hpp"

namespace dsmr::nic {

LockManager::AreaLock& LockManager::lock_of(mem::AreaId area) {
  if (area >= locks_.size()) locks_.resize(static_cast<std::size_t>(area) + 1);
  return locks_[area];
}

bool LockManager::try_acquire(mem::AreaId area, LockToken token) {
  AreaLock& lock = lock_of(area);
  if (lock.held) return false;
  ++stats_.acquisitions;
  lock.held = true;
  lock.holder = token;
  return true;
}

sim::Future<void> LockManager::acquire(mem::AreaId area, LockToken token) {
  if (try_acquire(area, token)) {
    sim::Promise<void> immediate;
    immediate.set_value();
    return immediate.future();
  }
  AreaLock& lock = locks_[area];
  ++stats_.acquisitions;
  DSMR_CHECK_MSG(lock.holder != token, "re-entrant lock acquisition on area " << area);
  ++stats_.contended;
  lock.waiters.emplace_back(token, sim::Promise<void>{});
  stats_.max_queue = std::max(stats_.max_queue, static_cast<std::uint64_t>(lock.waiters.size()));
  return lock.waiters.back().second.future();
}

void LockManager::release(mem::AreaId area, LockToken token) {
  DSMR_CHECK_MSG(area < locks_.size() && locks_[area].held,
                 "release of unheld lock on area " << area);
  AreaLock& lock = locks_[area];
  DSMR_CHECK_MSG(lock.holder == token,
                 "release of area " << area << " by non-holder token " << token);
  if (lock.waiters.empty()) {
    lock.held = false;
    lock.holder = 0;
    return;
  }
  auto [next_token, promise] = std::move(lock.waiters.front());
  lock.waiters.erase(lock.waiters.begin());
  lock.holder = next_token;
  promise.set_value();  // resumption bounces through the engine queue.
}

void LockManager::release_at(sim::Engine& engine, sim::Time t, mem::AreaId area,
                             LockToken token) {
  AreaLock& lock = lock_of(area);
  DSMR_CHECK_MSG(lock.timed_release == 0, "second timed release pending on area " << area);
  lock.timed_release = token;
  engine.schedule_call(t, &LockManager::fire_timed_release, this, area);
}

void LockManager::fire_timed_release(void* manager, std::uint64_t area) {
  auto& self = *static_cast<LockManager*>(manager);
  const auto id = static_cast<mem::AreaId>(area);
  self.release(id, std::exchange(self.locks_[id].timed_release, 0));
}

bool LockManager::is_locked(mem::AreaId area) const {
  const AreaLock* lock = find(area);
  return lock != nullptr && lock->held;
}

LockToken LockManager::holder(mem::AreaId area) const {
  const AreaLock* lock = find(area);
  return lock != nullptr && lock->held ? lock->holder : 0;
}

bool LockManager::held_by(mem::AreaId area, LockToken token) const {
  const AreaLock* lock = find(area);
  return lock != nullptr && lock->held && lock->holder == token;
}

void LockManager::set_handoff(mem::AreaId area, const clocks::VectorClock& clock) {
  detect::hand_off(lock_of(area).handoff, clock);
}

const clocks::VectorClock* LockManager::handoff(mem::AreaId area) const {
  const AreaLock* lock = find(area);
  if (lock == nullptr || lock->handoff.empty()) return nullptr;
  return &lock->handoff;
}

}  // namespace dsmr::nic
