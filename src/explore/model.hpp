// The transition model for exhaustive schedule exploration (ROADMAP item 4).
//
// Exploration enumerates interleavings of the *threaded-backend op model*:
// each transition is one atomic micro-op of fuzz/thread_harness.cpp's
// run_rank — a put/get (with its lock/unlock fused in), a signal, a wait,
// or a tick — and every explored interleaving is materialized as a
// record::Log of kThread* events, so the verdict comes from the one true
// detector fold (record::replay_fold) and every racy interleaving is a
// witness that replays byte-for-byte through dsmr_replay AND back onto
// real OS threads via ReplayGate.
//
// Why the thread model and not gated sim execution (the issue sketches
// "over the sim engine"): the sim fabric merges the initiator's clock into
// the HOME rank's node clock on every kPutApply/kGetApply, so two accesses
// to *different* areas with the same home do not commute there — the
// issue's prescribed independence relation (disjoint areas commute) is
// simply false in the sim model, and DPOR built on it would be unsound.
// In the thread model the relation holds, and the witness story comes for
// free. docs/testing.md "Exhaustive exploration" spells out the contract.
//
// Independence is *finer* than the issue's sketch in one deliberate way:
// same-area read/read pairs are DEPENDENT. ShardedDetector::store_access
// overwrites the stored V clock and last_access_rank on every access,
// reads included, so two reads of one area do not commute in detector
// state (the final V is the last reader's clock). The property test in
// tests/test_explore.cpp pins this: marking read/read independent is the
// "deliberately coarsened relation must fail" case too, alongside the
// home-granular coarsening below.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/program.hpp"
#include "util/types.hpp"

namespace dsmr::explore {

enum class StepKind : std::uint8_t {
  kTick,    ///< sleep / compute — one kTick event, no shared state.
  kAccess,  ///< put or get, lock/unlock fused when locked.
  kSignal,  ///< tagged signal to a peer.
  kWait,    ///< blocking wait; consumes the FIFO-front matching signal.
};

/// One atomic transition of one rank. Fusing a locked access into a single
/// step (lock+access+unlock, three log events) is state-complete: no other
/// rank can take the same lock between grant and release (the contending
/// step would simply run before or after, which the interleaving already
/// enumerates), and any unrelated step interleaved inside the critical
/// section folds to the same detector state as placing it outside.
struct Step {
  StepKind kind = StepKind::kTick;
  bool write = false;      ///< kAccess: put (true) or get (false).
  int area = -1;           ///< kAccess: flat area index.
  int lock = -1;           ///< kAccess: flat lock-area index, -1 = unlocked.
  Rank peer = -1;          ///< kSignal: destination rank.
  std::uint64_t tag = 0;   ///< kSignal / kWait.

  std::string to_string() const;
};

/// A fuzz::Program lowered to per-rank step sequences — op for op, phase
/// boundaries expanded to the dissemination barrier's signal/wait rounds
/// (tags from fuzz::boundary_signal_tag), exactly mirroring
/// thread_harness.cpp run_rank so the synthesized event stream is the one
/// a gated ThreadWorld will accept.
struct FlatProgram {
  int nprocs = 0;
  int areas = 0;
  std::uint32_t area_bytes = 0;
  std::vector<std::vector<Step>> steps;  ///< [rank] -> transitions in order.

  std::size_t total_steps() const;
  std::size_t max_rank_steps() const;
};

FlatProgram flatten_program(const fuzz::Program& program);

/// A transition as it actually executed: the static step plus the dynamic
/// match information that decides signal/wait dependence.
struct ExecutedStep {
  Rank rank = -1;
  std::size_t step_index = 0;   ///< index into FlatProgram::steps[rank].
  Step step;
  Rank matched_src = -1;        ///< kWait: sender of the consumed signal.
  std::uint64_t matched_d = 0;  ///< kWait: sender's clock stamp at the send.
  std::uint64_t sent_d = 0;     ///< kSignal: own clock stamp of the send.
};

struct IndependenceOptions {
  /// Deliberately coarsened relation for the DPOR soundness property test:
  /// accesses are dependent iff their areas share a HOME rank
  /// (area % nprocs). This marks truly-commuting pairs (different areas,
  /// same home) dependent — harmless for soundness but it must FAIL the
  /// iff-direction of the property test, proving the test has teeth.
  bool coarse_same_home = false;
};

/// The dependence relation DPOR and the sleep sets are built on. True when
/// the two executed transitions do NOT commute on detector state:
///  * same rank (program order);
///  * accesses to the same area — any kinds (see header comment), or both
///    locked with the same lock area (the handoff merges releases, but
///    grant order still decides which releases each acquirer merges);
///  * signals to the same (destination, tag) channel (FIFO append order);
///  * a wait and exactly the signal it consumed (covers the enabling
///    direction; a co-enabled same-channel signal/wait pair with an older
///    queued signal genuinely commutes — the wait pops the pre-existing
///    front either way);
///  * everything involving a tick, waits of different ranks, and all other
///    pairs commute.
bool dependent(const ExecutedStep& a, const ExecutedStep& b, int nprocs,
               const IndependenceOptions& options = {});

}  // namespace dsmr::explore
