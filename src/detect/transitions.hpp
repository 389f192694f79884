// The happens-before transitions of the paper's clock rules (Algorithms
// 1–3), each written exactly once. The sim NIC and the threaded backend call
// them live; record::replay_fold calls them offline over the same
// ShardedDetector state, so record ≡ live holds by construction (the RecPlay
// discipline of Ronsse & De Bosschere, PAPERS.md: replay runs the live
// detector, not a re-implementation of it).
//
//  * thread_access — one threaded put/get, committed atomically under the
//    area's shard mutex: check the accessor's post-tick clock, capture the
//    clock the accessor merges on completion, store the accessor's clock.
//  * home_apply    — a put/get applied at its home NIC: check the issue
//    clock, store the home's post-receive clock.
//  * hand_off      — a user-lock release reaching the lock's handoff clock.
//
// Race callbacks run before the store, so `detector.prior_clock` and
// `prior_event` still describe the access the verdict was decided against.
#pragma once

#include <cstdint>

#include "clocks/vector_clock.hpp"
#include "core/rules.hpp"
#include "detect/sharded_detector.hpp"
#include "util/types.hpp"

namespace dsmr::detect {

/// Threaded access to area `id` by `accessor`, whose post-tick clock is
/// `clock`. Returns the clock the accessor merges once the op completes:
/// the pre-store W for a get (reads-from edge), the pre-store V ∨ W for an
/// acked put (completion edge), and an empty clock for an unacked put.
/// Caller holds the area's shard mutex when other threads share `detector`.
template <typename OnRace>
clocks::VectorClock thread_access(ShardedDetector& detector, core::DetectorMode mode,
                                  core::AccessKind kind, Rank accessor,
                                  const clocks::VectorClock& clock, AreaId id,
                                  bool acked_puts, std::uint64_t event_id,
                                  OnRace&& on_race) {
  const core::Verdict verdict = detector.check_one(mode, kind, accessor, clock, id);
  if (verdict.race) on_race(verdict);
  const bool write = kind == core::AccessKind::kWrite;
  clocks::VectorClock merge;
  if (!write) {
    merge = detector.w_clock(id);
  } else if (acked_puts) {
    merge = detector.v_clock(id);
    merge.merge_from(detector.w_clock(id));
  }
  detector.store_access(id, accessor, clock, write, accessor, event_id);
  return merge;
}

/// Home-side apply of `src`'s access to area `id`: when `check`, the issue
/// clock is checked against the area, then the home's post-receive clock
/// `home_clock` (an event clock of the home rank) is stored. Receiving
/// before the check is sound: the check reads only detector state and the
/// issue clock. Returns whether the check flagged a race.
template <typename OnRace>
bool home_apply(ShardedDetector& detector, core::DetectorMode mode, core::AccessKind kind,
                Rank src, const clocks::VectorClock& issue_clock,
                const clocks::VectorClock& home_clock, AreaId id, bool check,
                std::uint64_t event_id, OnRace&& on_race) {
  bool raced = false;
  if (check) {
    const core::Verdict verdict = detector.check_one(mode, kind, src, issue_clock, id);
    if (verdict.race) {
      on_race(verdict);
      raced = true;
    }
  }
  detector.store_access(id, detector.home(), home_clock,
                        kind == core::AccessKind::kWrite, src, event_id);
  return raced;
}

/// Lock handoff: a release joins the lock's handoff clock (empty until the
/// first release), which the next acquirer merges. A releaser's clock
/// already dominates the handoff it merged at its own acquire, so on
/// well-paired lock/unlock logs the join equals the latest release.
inline void hand_off(clocks::VectorClock& handoff, const clocks::VectorClock& release) {
  if (handoff.empty()) {
    handoff = release;
  } else {
    handoff.merge_from(release);
  }
}

}  // namespace dsmr::detect
