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
//  * Batched range checks. Each shard keeps one bit per slot and lane, set
//    while the lane holds a stored clock. check_range walks a shard's slot
//    range through core::check_span, which finds a run of pristine slots
//    from those bits alone and decides it with one verdict; a stored slot
//    is a run of its own. So a batch costs one verdict per pristine span
//    plus one per stored area — the cache-shaped API the benches drive to
//    10^6 areas.
//
// Concurrency contract: the detector does not lock for you on the per-area
// fast path. check_one / store_access / the per-area accessors require the
// caller to hold shard_mutex(id) when other threads may touch that shard
// (the ThreadWorld path), and need no lock single-threaded (the sim path and
// record::replay_fold). The transitions that drive them live in
// detect/transitions.hpp.
// check_range and store_range acquire each shard's mutex themselves as they
// walk it.
//
// Verdict equivalence: check_one/check_range run check_span with
// trusted_epochs=true — a valid epoch here is consistent with its stored
// clock *by construction* (store_access writes both from the same event),
// so the per-area consistency probe of the legacy path is skipped. The
// verdicts are bit-identical to core::check_access on the same state; the
// shard-equivalence and batch≡per-area suites in tests/test_detect.cpp hold
// this invariant under fuzzing.
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

/// A contiguous range of area ids: [first, first + count).
struct AreaSpan {
  AreaId first = 0;
  std::uint32_t count = 0;
};

/// One lane (V or W) of one area, by value: what restore_lane needs to put
/// the lane back exactly. An empty clock is a pristine lane.
using LaneSnapshot = core::LaneState;

/// What one check_range call found and did.
struct BatchVerdict {
  std::uint64_t checked = 0;        ///< areas covered (== span.count).
  std::uint64_t races = 0;          ///< areas whose verdict flagged a race.
  std::uint64_t runs = 0;           ///< pristine spans plus stored areas.
  std::uint64_t epoch_compares = 0; ///< runs decided by the O(1) epoch path.
  std::uint64_t full_compares = 0;  ///< runs needing the full clock compare.
};

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

  /// Batched check over a contiguous id range: walks each shard's slot
  /// range (locking that shard) and decides one verdict per run of pristine
  /// areas and one per stored area. `on_race(id, verdict)` fires for every
  /// area whose verdict flags a race. Verdicts are identical to calling
  /// check_one on every id in the span.
  template <typename OnRace>
  BatchVerdict check_range(core::DetectorMode mode, core::AccessKind kind,
                           Rank accessor, const clocks::VectorClock& accessor_clock,
                           AreaSpan span, OnRace&& on_race) const;

  BatchVerdict check_range(core::DetectorMode mode, core::AccessKind kind,
                           Rank accessor, const clocks::VectorClock& accessor_clock,
                           AreaSpan span) const {
    return check_range(mode, kind, accessor, accessor_clock, span,
                       [](AreaId, const core::Verdict&) {});
  }

  // ---- stores ----

  /// Records the event `clk` (the clock of event `event_id`, which occurred
  /// at `owner` and was initiated by `accessor`) into area `id`'s V lane,
  /// and into the W lane too when `is_write`. Caller-locked.
  void store_access(AreaId id, Rank owner, const clocks::VectorClock& clk,
                    bool is_write, Rank accessor, std::uint64_t event_id);

  /// Bulk store over a contiguous id range (locks each shard as it goes):
  /// every area in the span records the same event. Used by benches and
  /// range-granular ingest; the per-area protocol paths use store_access.
  void store_range(AreaSpan span, Rank owner, const clocks::VectorClock& clk,
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
    /// Bit `slot` of stored[w] is set while that lane holds a stored clock
    /// (a non-empty LaneState::clock) — check_range finds pristine runs
    /// here without reading the records.
    std::vector<std::uint64_t> stored[2];
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
  static void mark_stored(Shard& shard, std::size_t slot, bool w, bool stored) {
    std::uint64_t& word = shard.stored[w ? 1 : 0][slot / 64];
    const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
    word = stored ? word | bit : word & ~bit;
  }
  /// A lane's clock, the zero clock while pristine.
  const clocks::VectorClock& clock_of(const core::LaneState& lane) const {
    return lane.clock.empty() ? zero_clock_ : lane.clock;
  }

  void grow_shard(Shard& shard, std::size_t slots);
  void store_lane(Shard& shard, std::size_t slot, bool w, Rank owner,
                  const clocks::VectorClock& clk, Rank accessor, std::uint64_t event_id);
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

// ---------------------------------------------------------------------------
// check_range — header-inline because of the OnRace template; everything it
// calls per run is the core::check_span kernel.
// ---------------------------------------------------------------------------

template <typename OnRace>
BatchVerdict ShardedDetector::check_range(core::DetectorMode mode,
                                          core::AccessKind kind, Rank accessor,
                                          const clocks::VectorClock& accessor_clock,
                                          AreaSpan span, OnRace&& on_race) const {
  DSMR_CHECK_MSG(static_cast<std::size_t>(span.first) + span.count <= areas_,
                 "check_range span [" << span.first << ", +" << span.count
                                      << ") exceeds " << areas_ << " areas");
  BatchVerdict batch;
  batch.checked = span.count;
  if (span.count == 0) return batch;

  const std::size_t nshards = shards_.size();
  const std::size_t lo_id = span.first;
  const std::size_t hi_id = lo_id + span.count;  // exclusive
  const bool use_v = core::detail::compares_against_v(mode, kind);

  for (std::size_t s = 0; s < nshards; ++s) {
    // Ids in this shard are slot * nshards + s; the span maps to the
    // contiguous slot range [lo_slot, hi_slot).
    const std::size_t lo_slot = lo_id > s ? (lo_id - s + nshards - 1) / nshards : 0;
    const std::size_t hi_slot = hi_id > s ? (hi_id - s + nshards - 1) / nshards : 0;
    if (lo_slot >= hi_slot) continue;

    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> guard(shard.mutex);
    const core::SpanLane view{.shared_clock = &zero_clock_,
                              .shared_epoch = pristine_.epoch(),
                              .shared_prior = pristine_.prior,
                              .own = shard.stored[use_v ? 0 : 1].data(),
                              .own_first = lo_slot,
                              .slots = &shard.lanes[lane_index(lo_slot, !use_v)],
                              .stride = 2};
    const core::SpanStats stats = core::check_span(
        mode, kind, accessor, accessor_clock, view, hi_slot - lo_slot,
        /*trusted_epochs=*/true,
        [&](std::size_t first, std::size_t count, const core::Verdict& verdict) {
          if (!verdict.race) return;
          batch.races += count;
          for (std::size_t k = 0; k < count; ++k) {
            const std::size_t slot = lo_slot + first + k;
            on_race(static_cast<AreaId>(slot * nshards + s), verdict);
          }
        });
    batch.runs += stats.runs;
    batch.epoch_compares += stats.epoch_compares;
    batch.full_compares += stats.full_compares;
  }
  return batch;
}

}  // namespace dsmr::detect
