// Race reports and the report log.
//
// Paper §IV.D: "race conditions must be signaled to the user (e.g., by a
// message on the standard output of the program), but they must not abort
// the execution of the program." Reports therefore flow through observers;
// nothing in the library ever terminates on a race.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "clocks/vector_clock.hpp"
#include "core/rules.hpp"
#include "core/types.hpp"
#include "sim/time.hpp"
#include "util/types.hpp"

namespace dsmr::core {

struct RaceReport {
  std::uint64_t id = 0;          ///< sequence number of the report.
  sim::Time time = 0;            ///< virtual time of detection.
  Rank home = kInvalidRank;      ///< rank whose public memory holds the area.
  std::uint32_t area = 0;
  std::string area_name;

  // The access that triggered detection.
  Rank accessor = kInvalidRank;
  AccessKind kind = AccessKind::kRead;
  /// The triggering access's id: the 1-based record-log index of its issue
  /// event (its only event on the threaded backend) in a fold and in a
  /// recorded sim run; an unrecorded sim run numbers accesses in issue
  /// order, a threaded run per rank.
  std::uint64_t event_id = 0;
  clocks::VectorClock accessor_clock;

  // The stored state it was found concurrent with.
  ComparedAgainst against = ComparedAgainst::kNone;
  clocks::VectorClock stored_clock;
  std::uint64_t prior_event_id = 0;  ///< the other access's id (0 = unknown).

  /// Human-readable one-liner in the spirit the paper suggests.
  std::string describe() const;
};

/// Collects reports and fans them out to observers. Deduplication by
/// (area, prior event, current accessor) is available for user-facing
/// output; the raw stream is kept for the analysis module.
class RaceLog {
 public:
  using Observer = std::function<void(const RaceReport&)>;

  void add_observer(Observer observer) { observers_.push_back(std::move(observer)); }

  /// Records a report (assigning its id) and notifies observers.
  const RaceReport& record(RaceReport report);

  const std::vector<RaceReport>& reports() const { return reports_; }
  std::size_t count() const { return reports_.size(); }

  /// Reports collapsed to unique (home, area) pairs — "which data raced".
  std::vector<RaceReport> unique_by_area() const;

 private:
  std::vector<RaceReport> reports_;
  std::vector<Observer> observers_;
};

}  // namespace dsmr::core
