#include "nic/lock_manager.hpp"

#include <algorithm>

#include "detect/transitions.hpp"
#include "util/assert.hpp"

namespace dsmr::nic {

sim::Future<void> LockManager::acquire(mem::AreaId area, LockToken token) {
  AreaLock& lock = locks_[area];
  ++stats_.acquisitions;
  if (!lock.held) {
    lock.held = true;
    lock.holder = token;
    sim::Promise<void> immediate;
    immediate.set_value();
    return immediate.future();
  }
  DSMR_CHECK_MSG(lock.holder != token, "re-entrant lock acquisition on area " << area);
  ++stats_.contended;
  lock.waiters.emplace_back(token, sim::Promise<void>{});
  stats_.max_queue = std::max(stats_.max_queue, static_cast<std::uint64_t>(lock.waiters.size()));
  return lock.waiters.back().second.future();
}

void LockManager::release(mem::AreaId area, LockToken token) {
  const auto it = locks_.find(area);
  DSMR_CHECK_MSG(it != locks_.end() && it->second.held,
                 "release of unheld lock on area " << area);
  AreaLock& lock = it->second;
  DSMR_CHECK_MSG(lock.holder == token,
                 "release of area " << area << " by non-holder token " << token);
  if (lock.waiters.empty()) {
    lock.held = false;
    lock.holder = 0;
    return;
  }
  auto [next_token, promise] = std::move(lock.waiters.front());
  lock.waiters.pop_front();
  lock.holder = next_token;
  promise.set_value();  // resumption bounces through the engine queue.
}

bool LockManager::is_locked(mem::AreaId area) const {
  const auto it = locks_.find(area);
  return it != locks_.end() && it->second.held;
}

LockToken LockManager::holder(mem::AreaId area) const {
  const auto it = locks_.find(area);
  return it != locks_.end() && it->second.held ? it->second.holder : 0;
}

bool LockManager::held_by(mem::AreaId area, LockToken token) const {
  const auto it = locks_.find(area);
  return it != locks_.end() && it->second.held && it->second.holder == token;
}

void LockManager::set_handoff(mem::AreaId area, const clocks::VectorClock& clock) {
  detect::hand_off(locks_[area].handoff, clock);
}

const clocks::VectorClock* LockManager::handoff(mem::AreaId area) const {
  const auto it = locks_.find(area);
  if (it == locks_.end() || it->second.handoff.empty()) return nullptr;
  return &it->second.handoff;
}

}  // namespace dsmr::nic
