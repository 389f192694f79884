// Epochs — the FastTrack idea (Flanagan & Freund; cf. Ronsse & De
// Bosschere's on-the-fly detectors in PAPERS.md) transplanted onto the
// paper's per-area clocks.
//
// An *epoch* (rank, value) names one event: the `value`-th event of process
// `rank`. For the clock C(e) of an event e at process p, Fidge/Mattern give
// the O(1) ordering witness this whole optimization rests on:
//
//     for any event f:   e → f  or  e = f   iff   C(f)[p] >= C(e)[p].
//
// Every clock the detector stores per area is such an event clock — it is
// the home NIC's post-event clock, an event at the home rank — and every
// accessor clock is the initiator's post-tick clock, an event at the
// initiator. So the full four-way comparison of Algorithm 3 collapses to
// two integer compares (core::check_lane's fast path), and the stored
// state can be *summarized* by its epoch (detect::ShardedDetector keeps one
// beside every stored clock).
#pragma once

#include <string>

#include "clocks/vector_clock.hpp"
#include "util/types.hpp"

namespace dsmr::clocks {

/// One event's identity in clock coordinates: the `value`-th event of
/// process `rank`. `value == 0` with a valid rank names "no event yet" (the
/// zero clock), which is dominated by every real event clock.
struct Epoch {
  Rank rank = kInvalidRank;
  ClockValue value = 0;

  bool valid() const { return rank != kInvalidRank; }

  /// The epoch of the event whose (post-tick) clock is `clk`, known to have
  /// occurred at `owner`. Invalid when `owner` is out of the clock's range
  /// (callers then fall back to full-clock comparison).
  static Epoch of_event(Rank owner, const VectorClock& clk) {
    if (owner < 0 || static_cast<std::size_t>(owner) >= clk.size()) return {};
    return {owner, clk[static_cast<std::size_t>(owner)]};
  }

  /// Compact wire/storage footprint: two varints.
  std::size_t wire_size() const {
    return VectorClock::varint_size(static_cast<ClockValue>(rank < 0 ? 0 : rank)) +
           VectorClock::varint_size(value);
  }

  bool operator==(const Epoch&) const = default;

  std::string to_string() const;  ///< "P<rank>@<value>", or "-" when invalid.
};

}  // namespace dsmr::clocks
