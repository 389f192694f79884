#include "core/event_log.hpp"

#include "util/assert.hpp"

namespace dsmr::core {

std::uint64_t EventLog::record(AccessEvent event) {
  const std::uint64_t id = next_id_++;
  event.id = id;
  events_.push_back(std::move(event));
  return id;
}

void EventLog::annotate_apply(std::uint64_t id, const clocks::VectorClock& apply_clock) {
  DSMR_CHECK_MSG(id >= 1 && id <= events_.size(), "annotate_apply: unknown event " << id);
  AccessEvent& event = events_[id - 1];
  DSMR_CHECK_MSG(event.apply_seq == 0, "event " << id << " applied twice");
  event.apply_clock = apply_clock;
  event.apply_seq = next_apply_seq_++;
}

const AccessEvent& EventLog::event(std::uint64_t id) const {
  DSMR_CHECK_MSG(id >= 1 && id <= events_.size() && events_[id - 1].id == id,
                 "event id " << id << " not in log");
  return events_[id - 1];
}

}  // namespace dsmr::core
