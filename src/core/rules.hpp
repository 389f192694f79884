// The race predicate — the decision kernel of the paper's Algorithms 1 & 2.
//
// Pure functions of clocks and ranks only: usable identically from the
// initiator side (kSeparate / kPiggyback transports) and from inside the
// home NIC's atomic event (kHomeSide transport), so every transport applies
// the same algorithm.
//
// Three implementations of the same predicate:
//  * `check_span` — the production kernel. Walks a lane of per-area stored
//    state (clock, epoch witness, prior rank) and emits ONE verdict per run
//    of state-identical areas: within a run the epoch comparison (two
//    integer compares, O(1)) or the vectorized full comparison happens
//    once, however many areas the run covers. This is what
//    detect::ShardedDetector::check_range feeds per shard.
//  * `check_access` — the legacy single-area entry point over arbitrary
//    caller-assembled state, a thin wrapper over a one-element span. The
//    protocols and the offline fold no longer call it (they go through
//    detect/transitions.hpp); the gated kernel benches and the
//    bit-identity property suites do.
//  * `check_access_oracle` — the original always-O(n) full-vector-clock
//    path, kept as the property-test oracle: all entry points must return
//    bit-identical verdicts on every input the protocols can produce (and
//    debug builds cross-check every span verdict against it, per area).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "clocks/epoch.hpp"
#include "clocks/ordering.hpp"
#include "clocks/vector_clock.hpp"
#include "core/types.hpp"
#include "util/assert.hpp"
#include "util/types.hpp"

namespace dsmr::core {

/// Which stored clock a verdict was decided against.
enum class ComparedAgainst : std::uint8_t { kNone, kV, kW };

struct Verdict {
  bool race = false;
  clocks::Ordering ordering = clocks::Ordering::kEqual;
  ComparedAgainst against = ComparedAgainst::kNone;

  bool operator==(const Verdict&) const = default;
};

/// The stored state of one area as seen by the check: the two clocks plus
/// the initiator ranks of the events that produced them, plus (optionally)
/// the epoch witnesses that enable the O(1) fast path. An invalid epoch
/// simply means "unknown provenance — compare the full clocks".
struct StoredClocks {
  const clocks::VectorClock& v;
  const clocks::VectorClock& w;
  Rank last_access_rank = kInvalidRank;
  Rank last_write_rank = kInvalidRank;
  /// Valid iff `v` (resp. `w`) is known to be the clock of the
  /// v_epoch.value-th event at process v_epoch.rank — true for every clock
  /// a home NIC stores (its own post-event clock) and for every clock it
  /// ships to initiators.
  clocks::Epoch v_epoch{};
  clocks::Epoch w_epoch{};
};

/// One comparison lane (V or W) of one area as a detector stores it, clock
/// inline: the clock of the last event stored into the lane, that event's
/// epoch witness (split into its two fields so the slot packs into one
/// 64-byte line), the id of the access that stored it, and that access's
/// initiator rank. An empty clock marks a pristine lane — never stored
/// into, it reads as the zero clock and owns no clock storage.
struct LaneState {
  clocks::VectorClock clock;
  ClockValue epoch_value = 0;
  std::uint64_t event = 0;
  Rank epoch_rank = kInvalidRank;
  Rank prior = kInvalidRank;

  clocks::Epoch epoch() const { return {epoch_rank, epoch_value}; }
};

/// A view of one comparison lane over a contiguous range of slots, shaped
/// for long runs of identical state. Every slot holds the `shared` state
/// (clock, epoch, prior) unless its bit in `own` is set, in which case its
/// state is `slots[i * stride]`. A detector passes its pristine state as
/// `shared` and a bitmap of the slots it has stored into, so a run of
/// pristine slots is found from the bitmap alone; a caller with one slot of
/// its own passes that slot as `shared` and no bitmap.
struct SpanLane {
  const clocks::VectorClock* shared_clock = nullptr;  ///< never null.
  clocks::Epoch shared_epoch{};
  Rank shared_prior = kInvalidRank;
  /// Bit `own_first + i` set: slot i holds its own state. Null: none does.
  const std::uint64_t* own = nullptr;
  std::size_t own_first = 0;
  const LaneState* slots = nullptr;
  std::size_t stride = 1;  ///< in LaneStates, between consecutive slots.

  bool owns(std::size_t i) const {
    const std::size_t bit = own_first + i;
    return own != nullptr && ((own[bit / 64] >> (bit % 64)) & 1u) != 0;
  }

  /// The first slot in [from, count) holding its own state, or `count`.
  std::size_t next_owned(std::size_t from, std::size_t count) const {
    if (own == nullptr) return count;
    std::size_t bit = own_first + from;
    const std::size_t end = own_first + count;
    while (bit < end) {
      const std::uint64_t word = own[bit / 64] >> (bit % 64);
      if (word != 0) {
        bit += static_cast<std::size_t>(std::countr_zero(word));
        break;
      }
      bit = (bit / 64 + 1) * 64;
    }
    return bit < end ? bit - own_first : count;
  }
};

/// What a span walk did — the batch-vs-scalar accounting the benches report.
struct SpanStats {
  std::size_t checked = 0;        ///< areas covered.
  std::size_t runs = 0;           ///< state-identical runs, one verdict each.
  std::size_t epoch_compares = 0; ///< runs decided by the O(1) epoch path.
  std::size_t full_compares = 0;  ///< runs that fell back to the full compare.
};

/// Applies Corollary 1 to one access:
///
///  * DualClock (the paper):
///      - write: compare the accessor clock with V(x), the last *access* —
///        a write races with any unordered read or write (§III.C);
///      - read: compare with W(x), the last *write* — concurrent reads are
///        not races (Fig. 4) and are never even compared against.
///  * SingleClock (ablation): every access compares with V(x); concurrent
///    reads get flagged — the false positives §IV.D eliminates.
///  * Off: never a race.
///
/// Two refinements the prose implies but the pseudocode leaves open:
///  * an area never accessed before (zero stored clock) cannot race — the
///    zero clock is dominated by every event clock;
///  * when the stored clock's event was issued by the *same* rank as this
///    access, program order plus the FIFO channel already order the two
///    operations even if the clocks cannot prove it (unacknowledged puts),
///    so the pair is exempted.
///
/// Precondition for the epoch fast path (what every call site guarantees):
/// `accessor_clock` is the accessor's clock *after* ticking for this access,
/// i.e. the clock of an event at `accessor`. Callers passing arbitrary
/// clocks must leave the epochs invalid.
Verdict check_access(DetectorMode mode, AccessKind kind, Rank accessor,
                     const clocks::VectorClock& accessor_clock,
                     const StoredClocks& stored);

/// The original full-vector-clock implementation (ignores the epochs):
/// the oracle the epoch path is property-tested against.
Verdict check_access_oracle(DetectorMode mode, AccessKind kind, Rank accessor,
                            const clocks::VectorClock& accessor_clock,
                            const StoredClocks& stored);

// ---------------------------------------------------------------------------
// Implementation. The production predicate is header-inline: the fast path
// is a handful of instructions and runs once per one-sided operation, so a
// call into another TU would cost more than the check itself.
// ---------------------------------------------------------------------------

namespace detail {

/// True when the O(1) event-clock comparison may decide this pair: the
/// stored clock carries a consistent epoch witness and the accessor clock is
/// a genuine post-tick event clock of `accessor`.
inline bool epoch_fast_applicable(const clocks::VectorClock& accessor_clock,
                                  Rank accessor, const clocks::VectorClock& stored,
                                  const clocks::Epoch& epoch) {
  if (!epoch.valid() || accessor_clock.size() != stored.size()) return false;
  const auto a = static_cast<std::size_t>(accessor);
  const auto e = static_cast<std::size_t>(epoch.rank);
  return accessor >= 0 && a < accessor_clock.size() && e < stored.size() &&
         stored[e] == epoch.value &&  // witness consistent with the clock
         accessor_clock[a] > 0;       // genuinely post-tick
}

/// Fidge/Mattern, applied in both directions: for an event e at process p
/// and any event f, C(e) <= C(f) iff C(e)[p] <= C(f)[p]. `stored` is the
/// clock of the epoch's event; `accessor_clock` is the clock of an event at
/// `accessor`. The full four-way ordering from two integer compares.
inline clocks::Ordering compare_event_clocks(const clocks::VectorClock& accessor_clock,
                                             Rank accessor,
                                             const clocks::VectorClock& stored,
                                             const clocks::Epoch& epoch) {
  const auto a = static_cast<std::size_t>(accessor);
  const bool stored_le =
      accessor_clock[static_cast<std::size_t>(epoch.rank)] >= epoch.value;
  const bool accessor_le = stored[a] >= accessor_clock[a];
  if (accessor_le && stored_le) return clocks::Ordering::kEqual;
  if (accessor_le) return clocks::Ordering::kBefore;
  if (stored_le) return clocks::Ordering::kAfter;
  return clocks::Ordering::kConcurrent;
}

/// True when this (mode, kind) compares against V — the lane-selection rule
/// shared by every entry point and by the detector's lane layout.
inline bool compares_against_v(DetectorMode mode, AccessKind kind) {
  return mode == DetectorMode::kSingleClock || kind == AccessKind::kWrite;
}

}  // namespace detail

/// The batched kernel: walks `count` slots of `lane` and calls
/// `on_run(first, length, verdict)` once per run: a maximal span of slots
/// holding the shared state (one comparison soundly decides it, since every
/// slot in it has the same clock, epoch and prior rank), or one slot holding
/// its own. Covers every slot exactly once, in order.
///
/// `trusted_epochs` distinguishes the two producers of lane state:
///  * true  — the lane belongs to a detect::ShardedDetector, where a valid
///    epoch is consistent with its clock *by construction* (both were
///    written together by store_access), so the per-slot consistency probe
///    of `epoch_fast_applicable` is skipped; only the accessor-side
///    preconditions are checked (once, not per run).
///  * false — the lane view was assembled from arbitrary caller state (the
///    check_access shim): the full legacy applicability test runs per run,
///    keeping verdicts bit-identical to the historical single-area path.
///
/// Debug builds cross-check every run's verdict against the full-VC oracle
/// exactly as check_access always has: the selected lane is presented to the
/// oracle as both V and W, which collapses the oracle's lane selection onto
/// the same reference clock and prior rank regardless of (mode, kind).
template <typename OnRun>
SpanStats check_span(DetectorMode mode, AccessKind kind, Rank accessor,
                     const clocks::VectorClock& accessor_clock,
                     const SpanLane& lane, std::size_t count,
                     bool trusted_epochs, OnRun&& on_run) {
  SpanStats stats;
  stats.checked = count;
  if (count == 0) return stats;
  if (mode == DetectorMode::kOff) {
    stats.runs = 1;
    on_run(std::size_t{0}, count, Verdict{});
    return stats;
  }

  const ComparedAgainst against = detail::compares_against_v(mode, kind)
                                      ? ComparedAgainst::kV
                                      : ComparedAgainst::kW;
  const auto a = static_cast<std::size_t>(accessor);
  // Accessor-side half of the fast-path precondition, hoisted out of the
  // loop: valid rank, in-range component, genuinely post-tick clock.
  const bool accessor_ok =
      accessor >= 0 && a < accessor_clock.size() && accessor_clock[a] > 0;

  std::size_t i = 0;
  while (i < count) {
    const clocks::VectorClock* stored = lane.shared_clock;
    clocks::Epoch epoch = lane.shared_epoch;
    Rank prior = lane.shared_prior;
    std::size_t j;
    if (lane.owns(i)) {
      const LaneState& slot = lane.slots[i * lane.stride];
      stored = &slot.clock;
      epoch = slot.epoch();
      prior = slot.prior;
      j = i + 1;
    } else {
      j = lane.next_owned(i + 1, count);
    }

    Verdict verdict;
    verdict.against = against;
    const bool fast =
        trusted_epochs
            ? (epoch.valid() && accessor_ok &&
               static_cast<std::size_t>(epoch.rank) < accessor_clock.size())
            : detail::epoch_fast_applicable(accessor_clock, accessor, *stored, epoch);
    if (fast) {
      verdict.ordering =
          detail::compare_event_clocks(accessor_clock, accessor, *stored, epoch);
      ++stats.epoch_compares;
    } else {
      verdict.ordering = accessor_clock.compare_vectorized(*stored);
      ++stats.full_compares;
    }
    // Same-initiator accesses are serialized by program order and the FIFO
    // channel to the home NIC regardless of what the clocks can prove.
    verdict.race =
        verdict.ordering == clocks::Ordering::kConcurrent && prior != accessor;

#ifndef NDEBUG
    {
      const StoredClocks shadow{*stored, *stored, prior, prior, epoch, epoch};
      DSMR_ASSERT(verdict ==
                  check_access_oracle(mode, kind, accessor, accessor_clock, shadow));
    }
#endif
    ++stats.runs;
    on_run(i, j - i, verdict);
    i = j;
  }
  return stats;
}

inline Verdict check_access(DetectorMode mode, AccessKind kind, Rank accessor,
                            const clocks::VectorClock& accessor_clock,
                            const StoredClocks& stored) {
  // Deprecation shim: a one-element span over the caller's StoredClocks.
  // Bit-identical to the historical single-area implementation (untrusted
  // epochs → the full legacy applicability test decides the fast path).
  const bool use_v = detail::compares_against_v(mode, kind);
  const SpanLane lane{use_v ? &stored.v : &stored.w,
                      use_v ? stored.v_epoch : stored.w_epoch,
                      use_v ? stored.last_access_rank : stored.last_write_rank};

  Verdict verdict;
  check_span(mode, kind, accessor, accessor_clock, lane, 1,
             /*trusted_epochs=*/false,
             [&](std::size_t, std::size_t, const Verdict& v) { verdict = v; });
#ifndef NDEBUG
  // Debug builds cross-check every verdict — including every live verdict of
  // every protocol run — against the full-vector-clock oracle.
  DSMR_ASSERT(verdict == check_access_oracle(mode, kind, accessor, accessor_clock, stored));
#endif
  return verdict;
}

}  // namespace dsmr::core
