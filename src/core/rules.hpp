// The race predicate — the decision kernel of the paper's Algorithms 1 & 2.
//
// Pure functions of clocks and ranks only: usable identically from the
// initiator side (kSeparate / kPiggyback transports) and from inside the
// home NIC's atomic event (kHomeSide transport), so every transport applies
// the same algorithm.
//
// One kernel and its oracle:
//  * `check_lane` — the production kernel: one access against one stored
//    lane (clock, epoch witness, prior rank), one verdict. The O(1) epoch
//    comparison (two integer compares) decides it when the epoch allows,
//    the vectorized full comparison otherwise. Every live and offline
//    verdict comes from it: detect::ShardedDetector::check_one (home-side
//    apply, threaded put/get, the replay fold) and detect::initiator_check
//    (the separate and piggyback transports).
//  * `check_access` — the single-area entry point over arbitrary
//    caller-assembled state: selects the lane and calls `check_lane` with
//    untrusted epochs. The gated kernel bench and the bit-identity property
//    suites call it.
//  * `check_access_oracle` — the original always-O(n) full-vector-clock
//    path, kept as the property-test oracle: every entry point must return
//    bit-identical verdicts on every input the protocols can produce (and
//    debug builds cross-check every `check_lane` verdict against it).
#pragma once

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

/// One access against one stored lane: `stored` is the clock of the lane
/// that (mode, kind) compares against, `epoch` its epoch witness and
/// `prior` the initiator rank of the access that stored it.
///
/// `trusted_epochs` distinguishes the two producers of lane state:
///  * true  — a valid epoch is consistent with its clock *by construction*
///    (ShardedDetector::store_access writes both from the same event;
///    detect::initiator_check derives it from the fetched clock), so the
///    consistency probe of `epoch_fast_applicable` is skipped; only the
///    accessor-side preconditions are checked.
///  * false — the lane was assembled from arbitrary caller state (the
///    check_access shim): the full applicability test runs, keeping
///    verdicts bit-identical to the historical single-area path.
///
/// Debug builds cross-check every verdict against the full-VC oracle
/// exactly as check_access always has: the lane is presented to the oracle
/// as both V and W, which collapses the oracle's lane selection onto the
/// same reference clock and prior rank regardless of (mode, kind).
inline Verdict check_lane(DetectorMode mode, AccessKind kind, Rank accessor,
                          const clocks::VectorClock& accessor_clock,
                          const clocks::VectorClock& stored, clocks::Epoch epoch,
                          Rank prior, bool trusted_epochs) {
  Verdict verdict;
  if (mode == DetectorMode::kOff) return verdict;
  verdict.against = detail::compares_against_v(mode, kind) ? ComparedAgainst::kV
                                                           : ComparedAgainst::kW;
  const auto a = static_cast<std::size_t>(accessor);
  // Accessor side of the fast-path precondition: valid rank, in-range
  // component, genuinely post-tick clock.
  const bool fast =
      trusted_epochs
          ? (epoch.valid() && accessor >= 0 && a < accessor_clock.size() &&
             accessor_clock[a] > 0 &&
             static_cast<std::size_t>(epoch.rank) < accessor_clock.size())
          : detail::epoch_fast_applicable(accessor_clock, accessor, stored, epoch);
  verdict.ordering = fast ? detail::compare_event_clocks(accessor_clock, accessor, stored, epoch)
                          : accessor_clock.compare_vectorized(stored);
  // Same-initiator accesses are serialized by program order and the FIFO
  // channel to the home NIC regardless of what the clocks can prove.
  verdict.race = verdict.ordering == clocks::Ordering::kConcurrent && prior != accessor;

#ifndef NDEBUG
  {
    const StoredClocks shadow{stored, stored, prior, prior, epoch, epoch};
    DSMR_ASSERT(verdict == check_access_oracle(mode, kind, accessor, accessor_clock, shadow));
  }
#endif
  return verdict;
}

inline Verdict check_access(DetectorMode mode, AccessKind kind, Rank accessor,
                            const clocks::VectorClock& accessor_clock,
                            const StoredClocks& stored) {
  // The caller's StoredClocks as one lane, with untrusted epochs: the full
  // applicability test decides the fast path.
  const bool use_v = detail::compares_against_v(mode, kind);
  const Verdict verdict =
      check_lane(mode, kind, accessor, accessor_clock, use_v ? stored.v : stored.w,
                 use_v ? stored.v_epoch : stored.w_epoch,
                 use_v ? stored.last_access_rank : stored.last_write_rank,
                 /*trusted_epochs=*/false);
#ifndef NDEBUG
  // Debug builds cross-check every verdict — including every live verdict of
  // every protocol run — against the full-vector-clock oracle.
  DSMR_ASSERT(verdict == check_access_oracle(mode, kind, accessor, accessor_clock, stored));
#endif
  return verdict;
}

}  // namespace dsmr::core
