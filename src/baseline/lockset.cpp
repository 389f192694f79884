#include "baseline/lockset.hpp"

#include <algorithm>

namespace dsmr::baseline {

LocksetResult LocksetDetector::analyze(const record::Log& log) {
  std::map<analysis::AreaKey, AreaState> states;
  LocksetResult result;
  // Each table entry's (home, AreaId): AreaIds count up per home in
  // table (allocation) order.
  std::vector<analysis::AreaKey> keys;
  std::map<Rank, std::uint32_t> next_id;
  for (const auto& entry : log.areas) keys.emplace_back(entry.home, next_id[entry.home]++);
  // Locks held per rank, by flat area index. A lock event (the grant) takes
  // the lock; an unlock event (the release, on the sim its issue) gives it
  // back — the points at which the initiator's own view changes.
  std::vector<std::set<std::uint64_t>> held_by(log.header.nprocs);

  for (std::size_t i = 0; i < log.events.size(); ++i) {
    const record::Event& event = log.events[i];
    // Field b names an area on every event read below; skip malformed ones
    // (disk input — the fold reports them).
    if (event.a >= held_by.size() || event.b >= keys.size()) continue;
    if (event.kind == record::EventKind::kLock ||
        event.kind == record::EventKind::kThreadLock) {
      held_by[event.a].insert(event.b);
      continue;
    }
    if (event.kind == record::EventKind::kUnlockIssue ||
        event.kind == record::EventKind::kThreadUnlock) {
      held_by[event.a].erase(event.b);
      continue;
    }
    if (!record::opens_access(event.kind)) continue;
    const auto rank = static_cast<Rank>(event.a);
    const core::AccessKind kind = record::access_kind(event.kind);
    const analysis::AreaKey& area = keys[event.b];
    AreaState& st = states[area];
    const std::set<std::uint64_t>& held = held_by[event.a];

    switch (st.state) {
      case State::kVirgin:
        st.state = State::kExclusive;
        st.first_rank = rank;
        break;
      case State::kExclusive:
        if (rank == st.first_rank) break;  // still thread-local.
        st.state = kind == core::AccessKind::kWrite ? State::kSharedModified
                                                    : State::kShared;
        break;
      case State::kShared:
        if (kind == core::AccessKind::kWrite) st.state = State::kSharedModified;
        break;
      case State::kSharedModified:
        break;
    }

    // Lockset refinement runs from the very first access (original Eraser):
    // the Exclusive state only defers *reporting*, not learning — otherwise
    // the first thread's locks would never constrain the candidate set.
    if (!st.candidates.has_value()) {
      st.candidates = held;
    } else {
      std::set<std::uint64_t> intersection;
      std::set_intersection(st.candidates->begin(), st.candidates->end(), held.begin(),
                            held.end(),
                            std::inserter(intersection, intersection.begin()));
      *st.candidates = std::move(intersection);
    }

    if (st.state == State::kSharedModified && st.candidates.has_value() &&
        st.candidates->empty() && !st.reported) {
      st.reported = true;
      result.warnings.push_back({area, i + 1, rank});
      result.flagged_areas.insert(area);
    }
  }
  return result;
}

}  // namespace dsmr::baseline
