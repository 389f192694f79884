// The standalone detector core: every per-area detection fact that used to
// live inside mem::Area (V/W clocks, epoch witnesses, prior initiator ranks
// and event ids) now lives here, in a shape chosen for the per-op path and
// for production scale:
//
//  * One record per area, clocks inline. An area's state is two 64-byte
//    core::LaneStates, V then W, each holding its clock by value beside the
//    clock's epoch, prior rank and event id. An op finds everything at an
//    address computed from its id: no clock pointer is loaded before the
//    clock (for n <= VectorClock::kInlineCapacity the clock's components
//    sit in the record itself).
//  * Pristine lanes are empty clocks. A registered-but-untouched lane holds
//    an empty VectorClock and reads as the detector's zero clock, so
//    registering 10^6 areas materializes zero clock storage; a lane's
//    clock appears at its first store and goes again when restore_lane
//    returns it to pristine.
//  * Sharding by `area_id % shards`. Each shard owns the records of its
//    areas plus one mutex; area id → (shard, slot) is two integer ops, and
//    writers on different shards never contend. ThreadWorld locks these
//    shard mutexes on its put/get path; the sim backend and the offline
//    fold use the same layout at shards=1.
//
// Concurrency contract: the detector does not lock for you. check_one,
// store_access and the per-area accessors require the caller to hold
// shard_mutex(id) when other threads may touch that shard (the ThreadWorld
// path), and need no lock single-threaded (the sim path and
// record::replay_fold). The transitions that drive them live in
// detect/transitions.hpp.
//
// Verdict equivalence: check_one runs core::check_lane with
// trusted_epochs=true — a valid epoch here is consistent with its stored
// clock *by construction* (store_access writes both from the same event),
// so the per-area consistency probe of the legacy path is skipped. The
// verdicts are bit-identical to core::check_access on the same state; the
// per-area and shard-equivalence suites in tests/test_detect.cpp hold this
// invariant under fuzzing.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "clocks/epoch.hpp"
#include "clocks/vector_clock.hpp"
#include "core/rules.hpp"
#include "util/assert.hpp"
#include "util/types.hpp"

namespace dsmr::detect {

using AreaId = std::uint32_t;

/// One lane (V or W) of one area, by value: what restore_lane needs to put
/// the lane back exactly. An empty clock is a pristine lane.
using LaneSnapshot = core::LaneState;

class ShardedDetector {
 public:
  /// Detector for areas homed at `home` in a system of `nprocs` processes,
  /// state partitioned across `shards` lock shards (>= 1).
  ShardedDetector(std::size_t nprocs, Rank home, int shards);

  ShardedDetector(const ShardedDetector&) = delete;
  ShardedDetector& operator=(const ShardedDetector&) = delete;

  std::size_t nprocs() const { return nprocs_; }
  Rank home() const { return home_; }
  int shards() const { return static_cast<int>(shards_.size()); }
  std::size_t area_count() const { return areas_; }

  /// Registers the next area. Ids are dense and allocation-ordered (the
  /// segment's bump allocator assigns them), so `id` must equal
  /// area_count(). O(1) amortized — no clock is materialized.
  void register_area(AreaId id);

  /// Bulk registration for benches and mass-allocation callers.
  void register_areas(std::size_t count);

  /// The mutex guarding `id`'s shard. Callers on the per-area path hold it
  /// across their check+store sequence (check / record / store must be one
  /// atomic step).
  std::mutex& shard_mutex(AreaId id) const { return shard_for(id).mutex; }

  /// The record stamp of `id`'s shard (record::Recorder::record_thread's
  /// sync slot): the last stamp taken under shard_mutex(id), which guards it.
  std::uint64_t& record_stamp(AreaId id) const { return shard_for(id).record_stamp; }

  // ---- checks ----

  /// One area, one verdict. Caller-locked (see the concurrency contract).
  core::Verdict check_one(core::DetectorMode mode, core::AccessKind kind,
                          Rank accessor, const clocks::VectorClock& accessor_clock,
                          AreaId id) const;

  // ---- stores ----

  /// Records the event `clk` (the clock of event `event_id`, which occurred
  /// at `owner` and was initiated by `accessor`) into area `id`'s V lane,
  /// and into the W lane too when `is_write`. Caller-locked.
  void store_access(AreaId id, Rank owner, const clocks::VectorClock& clk,
                    bool is_write, Rank accessor, std::uint64_t event_id);

  // ---- lane undo (caller-locked under concurrency) ----

  /// Area `id`'s W lane when `w`, else its V lane, valid until the lane's
  /// next store or restore. record::Folder copies the lanes a step is about
  /// to store into, and restores them on undo. Restoring a pristine
  /// snapshot makes the lane pristine again: its clock storage is released
  /// and resident_clock_bytes drops by it.
  const LaneSnapshot& lane_snapshot(AreaId id, bool w) const { return lane(id, w); }
  void restore_lane(AreaId id, bool w, const LaneSnapshot& snap);

  // ---- per-area state accessors (caller-locked under concurrency) ----

  const clocks::VectorClock& v_clock(AreaId id) const { return clock_of(lane(id, false)); }
  const clocks::VectorClock& w_clock(AreaId id) const { return clock_of(lane(id, true)); }
  clocks::Epoch v_epoch(AreaId id) const { return lane(id, false).epoch(); }
  clocks::Epoch w_epoch(AreaId id) const { return lane(id, true).epoch(); }
  Rank last_access_rank(AreaId id) const { return lane(id, false).prior; }
  Rank last_write_rank(AreaId id) const { return lane(id, true).prior; }
  std::uint64_t last_access_event(AreaId id) const { return lane(id, false).event; }
  std::uint64_t last_write_event(AreaId id) const { return lane(id, true).event; }

  /// The stored clock / prior event id a verdict was decided against.
  const clocks::VectorClock& prior_clock(AreaId id, core::ComparedAgainst against) const {
    return against == core::ComparedAgainst::kW ? w_clock(id) : v_clock(id);
  }
  std::uint64_t prior_event(AreaId id, core::ComparedAgainst against) const {
    return against == core::ComparedAgainst::kW ? last_write_event(id)
                                                : last_access_event(id);
  }

  // ---- storage accounting (CLAIM-V.A1) ----

  /// Modeled detection-metadata bytes for one area: both lanes' compact
  /// clock encodings plus their epoch witnesses while summarized — the
  /// §V.A accounting this state was charged when it lived in mem::Area.
  std::size_t area_storage_bytes(AreaId id) const {
    return v_storage_bytes(id) + w_storage_bytes(id);
  }
  std::size_t v_storage_bytes(AreaId id) const { return lane_storage_bytes(lane(id, false)); }
  std::size_t w_storage_bytes(AreaId id) const { return lane_storage_bytes(lane(id, true)); }
  std::size_t storage_bytes() const;  ///< sum over all registered areas.

  /// Bytes of clock storage actually materialized (lanes holding a stored
  /// clock — pristine lanes cost nothing). This is the number that stays 0
  /// across 10^6 cold registrations.
  std::size_t resident_clock_bytes() const;

 private:
  static_assert(sizeof(core::LaneState) <= 64, "a lane fits one cache line's worth");

  struct Shard {
    mutable std::mutex mutex;
    std::uint64_t record_stamp = 0;  ///< guarded by `mutex`.
    /// Slot s's V lane at 2s, its W lane at 2s + 1: one area's record is
    /// two adjacent lanes. Each lane has its own clock — V and W must not
    /// share storage, or a later V-only event would retroactively corrupt W.
    std::vector<core::LaneState> lanes;
  };

  std::size_t shard_of(AreaId id) const { return id % shards_.size(); }
  std::size_t slot_of(AreaId id) const { return id / shards_.size(); }
  Shard& shard_for(AreaId id) const { return *shards_[shard_of(id)]; }

  /// Where slot `slot`'s V (W when `w`) lane sits in Shard::lanes.
  static std::size_t lane_index(std::size_t slot, bool w) { return 2 * slot + (w ? 1 : 0); }
  const core::LaneState& lane(AreaId id, bool w) const {
    DSMR_ASSERT(id < areas_);
    return shard_for(id).lanes[lane_index(slot_of(id), w)];
  }
  /// A lane's clock, the zero clock while pristine.
  const clocks::VectorClock& clock_of(const core::LaneState& lane) const {
    return lane.clock.empty() ? zero_clock_ : lane.clock;
  }

  std::size_t lane_storage_bytes(const core::LaneState& lane) const;

  std::size_t nprocs_;
  Rank home_;
  std::size_t areas_ = 0;
  /// What every pristine lane reads as: the zero clock as the event clock
  /// of the fictitious 0th event of the home rank. Never mutated after
  /// construction, so concurrent readers across shards are safe.
  clocks::VectorClock zero_clock_;
  core::LaneState pristine_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace dsmr::detect
