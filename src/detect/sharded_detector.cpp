#include "detect/sharded_detector.hpp"

namespace dsmr::detect {

ShardedDetector::ShardedDetector(std::size_t nprocs, Rank home, int shards)
    : nprocs_(nprocs), home_(home), zero_clock_(nprocs) {
  DSMR_REQUIRE(shards >= 1, "detector needs at least one shard, got " << shards);
  DSMR_REQUIRE(home >= 0 && static_cast<std::size_t>(home) < nprocs,
               "detector home rank " << home << " out of range for " << nprocs
                                     << " processes");
  // Fresh state is the zero clock as an event clock — the fictitious 0th
  // event of the home rank — so a pristine lane starts epoch-summarized.
  pristine_.epoch_rank = home_;
  pristine_.epoch_value = 0;
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    // Room for four areas (512 bytes of lanes) from the start: a shard's
    // first registrations do not reallocate.
    shards_.back()->lanes.reserve(2 * 4);
  }
}

namespace {

/// Stores the event `clk` (at `owner`, initiated by `accessor`) into `lane`.
void store_lane(core::LaneState& lane, Rank owner, const clocks::VectorClock& clk,
                Rank accessor, std::uint64_t event_id) {
  DSMR_ASSERT(!clk.empty());  // an empty clock would read as pristine.
  lane.clock = clk;
  // The stored state is the clock of one known event at `owner`,
  // summarized by its epoch (which comes out invalid — full-compare
  // fallback — if owner is out of range).
  const clocks::Epoch epoch = clocks::Epoch::of_event(owner, clk);
  lane.epoch_rank = epoch.rank;
  lane.epoch_value = epoch.value;
  lane.prior = accessor;
  lane.event = event_id;
}

}  // namespace

void ShardedDetector::register_area(AreaId id) {
  DSMR_REQUIRE(id == areas_, "areas register densely in allocation order: got id "
                                 << id << ", expected " << areas_);
  shard_for(id).lanes.resize(2 * (slot_of(id) + 1), pristine_);
  ++areas_;
}

void ShardedDetector::register_areas(std::size_t count) {
  const std::size_t nshards = shards_.size();
  const std::size_t total = areas_ + count;
  for (std::size_t s = 0; s < nshards; ++s) {
    // Slots in shard s after growth: ids s, s+S, s+2S, ... below the new
    // area count.
    const std::size_t slots = total > s ? (total - s + nshards - 1) / nshards : 0;
    shards_[s]->lanes.resize(2 * slots, pristine_);
  }
  areas_ = total;
}

core::Verdict ShardedDetector::check_one(core::DetectorMode mode,
                                         core::AccessKind kind, Rank accessor,
                                         const clocks::VectorClock& accessor_clock,
                                         AreaId id) const {
  const core::LaneState& slot = lane(id, !core::detail::compares_against_v(mode, kind));
  return core::check_lane(mode, kind, accessor, accessor_clock, clock_of(slot), slot.epoch(),
                          slot.prior, /*trusted_epochs=*/true);
}

void ShardedDetector::store_access(AreaId id, Rank owner,
                                   const clocks::VectorClock& clk, bool is_write,
                                   Rank accessor, std::uint64_t event_id) {
  DSMR_ASSERT(id < areas_);
  std::vector<core::LaneState>& lanes = shard_for(id).lanes;
  const std::size_t slot = slot_of(id);
  store_lane(lanes[lane_index(slot, false)], owner, clk, accessor, event_id);
  if (is_write) store_lane(lanes[lane_index(slot, true)], owner, clk, accessor, event_id);
}

void ShardedDetector::restore_lane(AreaId id, bool w, const LaneSnapshot& snap) {
  DSMR_ASSERT(id < areas_);
  // check_one trusts a pristine lane's epoch against the zero clock it
  // reads as, so a pristine lane must hold the pristine epoch and prior.
  DSMR_CHECK_MSG(!snap.clock.empty() ||
                     (snap.epoch() == pristine_.epoch() && snap.prior == pristine_.prior),
                 "restore_lane of a pristine snapshot with a stored epoch or prior");
  // A pristine snapshot releases the lane's clock storage.
  shard_for(id).lanes[lane_index(slot_of(id), w)] = snap;
}

std::size_t ShardedDetector::lane_storage_bytes(const core::LaneState& lane) const {
  const clocks::Epoch epoch = lane.epoch();
  return clock_of(lane).wire_size() + (epoch.valid() ? epoch.wire_size() : 0);
}

std::size_t ShardedDetector::storage_bytes() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    for (const core::LaneState& lane : shard->lanes) total += lane_storage_bytes(lane);
  }
  return total;
}

std::size_t ShardedDetector::resident_clock_bytes() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    // A pristine lane's empty clock adds nothing.
    for (const core::LaneState& lane : shard->lanes) total += lane.clock.fixed_wire_size();
  }
  return total;
}

}  // namespace dsmr::detect
