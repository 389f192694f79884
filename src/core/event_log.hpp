// Append-only log of every shared-memory access event.
//
// The online detector does not need this log — it is the *instrumentation*
// substrate for the offline analysis (dsmr::analysis): ground-truth race
// enumeration over all conflicting pairs, precision/recall of the online
// algorithm, and the clock-truncation ablation of §IV.C.
#pragma once

#include <cstdint>
#include <vector>

#include "clocks/vector_clock.hpp"
#include "core/types.hpp"
#include "sim/time.hpp"
#include "util/types.hpp"

namespace dsmr::core {

struct AccessEvent {
  std::uint64_t id = 0;  ///< 1-based; 0 means "no event".
  sim::Time time = 0;
  Rank rank = kInvalidRank;          ///< initiator.
  AccessKind kind = AccessKind::kRead;
  Rank home = kInvalidRank;          ///< area's home rank.
  std::uint32_t area = 0;
  std::uint32_t offset = 0;          ///< within the area.
  std::uint32_t length = 0;
  clocks::VectorClock issue_clock;   ///< initiator clock at issue (post-tick).
  std::vector<std::uint64_t> held_locks;  ///< user lock tokens held at issue
                                          ///< (consumed by the lockset baseline).

  // Filled in when the home NIC applies the access (annotate_apply): the
  // home's post-event clock and the global application order. Ground truth
  // asks, for each conflicting pair applied as (a, b): could b's initiator
  // have known a's application? race iff rank_a != rank_b and
  // !(a.apply_clock ≤ b.issue_clock).
  clocks::VectorClock apply_clock;
  std::uint64_t apply_seq = 0;       ///< 0 = never applied.
};

class EventLog {
 public:
  /// Records an event, assigning its id. Returns the id.
  std::uint64_t record(AccessEvent event);

  /// Marks event `id` as applied at the home NIC with the given post-event
  /// clock; assigns the global application sequence number.
  void annotate_apply(std::uint64_t id, const clocks::VectorClock& apply_clock);

  const std::vector<AccessEvent>& events() const { return events_; }
  const AccessEvent& event(std::uint64_t id) const;
  std::size_t size() const { return events_.size(); }
  void clear() { events_.clear(); }

 private:
  std::vector<AccessEvent> events_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_apply_seq_ = 1;
};

}  // namespace dsmr::core
