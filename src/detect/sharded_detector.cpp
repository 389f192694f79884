#include "detect/sharded_detector.hpp"

#include <bit>

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

void ShardedDetector::grow_shard(Shard& shard, std::size_t slots) {
  shard.lanes.resize(2 * slots, pristine_);
  for (std::vector<std::uint64_t>& bits : shard.stored) bits.resize((slots + 63) / 64, 0);
}

void ShardedDetector::register_area(AreaId id) {
  DSMR_REQUIRE(id == areas_, "areas register densely in allocation order: got id "
                                 << id << ", expected " << areas_);
  Shard& shard = shard_for(id);
  grow_shard(shard, slot_of(id) + 1);
  ++areas_;
}

void ShardedDetector::register_areas(std::size_t count) {
  const std::size_t nshards = shards_.size();
  const std::size_t total = areas_ + count;
  for (std::size_t s = 0; s < nshards; ++s) {
    // Slots in shard s after growth: ids s, s+S, s+2S, ... below the new
    // area count.
    grow_shard(*shards_[s], total > s ? (total - s + nshards - 1) / nshards : 0);
  }
  areas_ = total;
}

core::Verdict ShardedDetector::check_one(core::DetectorMode mode,
                                         core::AccessKind kind, Rank accessor,
                                         const clocks::VectorClock& accessor_clock,
                                         AreaId id) const {
  // The one slot goes in as the span's shared state: no bitmap to read.
  const core::LaneState& slot = lane(id, !core::detail::compares_against_v(mode, kind));
  const core::SpanLane view{&clock_of(slot), slot.epoch(), slot.prior};
  core::Verdict verdict;
  core::check_span(mode, kind, accessor, accessor_clock, view, 1, /*trusted_epochs=*/true,
                   [&](std::size_t, std::size_t, const core::Verdict& v) {
                     verdict = v;
                   });
  return verdict;
}

void ShardedDetector::store_lane(Shard& shard, std::size_t slot, bool w, Rank owner,
                                 const clocks::VectorClock& clk, Rank accessor,
                                 std::uint64_t event_id) {
  DSMR_ASSERT(!clk.empty());  // an empty clock would read as pristine.
  core::LaneState& lane = shard.lanes[lane_index(slot, w)];
  if (lane.clock.empty()) mark_stored(shard, slot, w, true);
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

void ShardedDetector::store_access(AreaId id, Rank owner,
                                   const clocks::VectorClock& clk, bool is_write,
                                   Rank accessor, std::uint64_t event_id) {
  DSMR_ASSERT(id < areas_);
  Shard& shard = shard_for(id);
  const std::size_t slot = slot_of(id);
  store_lane(shard, slot, false, owner, clk, accessor, event_id);
  if (is_write) store_lane(shard, slot, true, owner, clk, accessor, event_id);
}

void ShardedDetector::store_range(AreaSpan span, Rank owner,
                                  const clocks::VectorClock& clk, bool is_write,
                                  Rank accessor, std::uint64_t event_id) {
  DSMR_CHECK_MSG(static_cast<std::size_t>(span.first) + span.count <= areas_,
                 "store_range span [" << span.first << ", +" << span.count
                                      << ") exceeds " << areas_ << " areas");
  const std::size_t nshards = shards_.size();
  const std::size_t lo_id = span.first;
  const std::size_t hi_id = lo_id + span.count;
  for (std::size_t s = 0; s < nshards; ++s) {
    const std::size_t lo_slot = lo_id > s ? (lo_id - s + nshards - 1) / nshards : 0;
    const std::size_t hi_slot = hi_id > s ? (hi_id - s + nshards - 1) / nshards : 0;
    if (lo_slot >= hi_slot) continue;
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> guard(shard.mutex);
    for (std::size_t slot = lo_slot; slot < hi_slot; ++slot) {
      store_lane(shard, slot, false, owner, clk, accessor, event_id);
      if (is_write) store_lane(shard, slot, true, owner, clk, accessor, event_id);
    }
  }
}

void ShardedDetector::restore_lane(AreaId id, bool w, const LaneSnapshot& snap) {
  DSMR_ASSERT(id < areas_);
  Shard& shard = shard_for(id);
  const std::size_t slot = slot_of(id);
  const bool stored = !snap.clock.empty();
  // Pristine lanes all hold the pristine state: check_range decides a
  // pristine run from the stored bits alone.
  DSMR_CHECK_MSG(stored || (snap.epoch() == pristine_.epoch() && snap.prior == pristine_.prior),
                 "restore_lane of a pristine snapshot with a stored epoch or prior");
  shard.lanes[lane_index(slot, w)] = snap;  // pristine: releases the clock storage.
  mark_stored(shard, slot, w, stored);
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
    for (const bool w : {false, true}) {
      const std::vector<std::uint64_t>& bits = shard->stored[w ? 1 : 0];
      for (std::size_t k = 0; k < bits.size(); ++k) {
        for (std::uint64_t word = bits[k]; word != 0; word &= word - 1) {
          const std::size_t slot = 64 * k + static_cast<std::size_t>(std::countr_zero(word));
          total += shard->lanes[lane_index(slot, w)].clock.fixed_wire_size();
        }
      }
    }
  }
  return total;
}

}  // namespace dsmr::detect
