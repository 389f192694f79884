// Stateful exhaustive exploration with optimal dynamic partial-order
// reduction: source sets plus wakeup trees (Abdulla, Aronis, Jonsson &
// Sagonas, "Optimal Dynamic Partial Order Reduction", POPL 2014; CDSChecker
// is the engineering exemplar).
//
// The explorer drives explore::Executor through a depth-first search over
// scheduling choices. The search is stateful: each transition's events
// are folded through one record::Folder as soon as the transition
// executes, and stepping back out of a frame undoes both
// (Executor::undo, Folder::restore to the frame's checkpoint), so every
// DFS edge is executed and folded exactly once — no prefix is re-run. Every
// maximal run's verdict signature is read off the fold.
//
// Each new transition e' is checked against the path for races: a prior
// e of another rank that e' depends on (explore::dependent()) with no third
// transition between them in happens-before. For each reversible race the
// sequence v = (what ran between e and e' but does not happen after e).e'
// goes into the wakeup tree of e's frame, unless a rank asleep there is a
// weak initial of v (an explored branch covers it) or a scheduled branch
// already starts v. A frame runs its wakeup tree before any free choice.
// A wait is not reversible with the signal it consumed (that signal
// enabled it); every other dependent pair is. The result: every explored
// run is a new Mazurkiewicz trace, every trace is explored, and no run
// ends with every enabled transition asleep. So over the reduced space,
// "no racy interleaving" is a CERTIFICATE, not a sample, and every
// kSometimes manifestation rate becomes a proof of existence (the witness
// log replays it on real threads).
//
// This relies on two properties of the model: no transition is ever
// disabled (locks are fused into the access step), and a wait, once
// enabled, stays enabled with its match fixed (only the waiting rank pops
// its (rank, tag) mailbox).
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "core/rules.hpp"
#include "explore/executor.hpp"
#include "explore/model.hpp"
#include "fuzz/program.hpp"
#include "record/log.hpp"

namespace dsmr::explore {

struct ExploreOptions {
  core::DetectorMode mode = core::DetectorMode::kDualClock;
  /// Optimal DPOR (wakeup trees and sleep sets). Off => every node
  /// branches into every enabled rank and nothing sleeps: naive full
  /// enumeration, the cross-check baseline.
  bool dpor = true;
  IndependenceOptions independence;
  /// Budget on explored maximal runs (ExploreReport::interleavings);
  /// tripping it leaves ExploreReport::limit set and the exploration
  /// incomplete.
  std::uint64_t max_interleavings = 1u << 20;
  /// Budget on ExploreReport::transitions (0 = unlimited). Each DFS edge
  /// counts once, so a given budget admits more of the search than it did
  /// when every backtrack re-ran its prefix.
  std::uint64_t max_transitions = 0;
  /// Witness logs kept (one per distinct racy signature, first sighting).
  std::size_t max_witnesses = 4;
  /// Called with the executed transitions of every maximal run, in order,
  /// when set. Tests use it to group runs into Mazurkiewicz traces.
  std::function<void(const std::vector<ExecutedStep>&)> on_run;
};

struct ExploreReport {
  /// True iff the DFS exhausted the (reduced) space within budget. Only a
  /// complete exploration certifies; an incomplete one is reported as a
  /// limit failure by check_exhaustive.
  bool complete = false;
  std::string limit;  ///< which budget tripped; "" when complete.

  std::uint64_t interleavings = 0;       ///< maximal runs: one per trace.
  std::uint64_t deadlocks = 0;           ///< runs that did not complete.
  /// Runs cut off with every enabled transition asleep. Always 0 with
  /// wakeup trees: tests and the benchmark read it as the optimality check.
  std::uint64_t sleep_blocked = 0;
  std::uint64_t transitions = 0;         ///< DFS edges: each executed once.
  std::uint64_t pruned_branches = 0;     ///< enabled-but-never-explored choices.
  std::uint64_t racy_interleavings = 0;  ///< runs with >= 1 race report.
  std::uint64_t planted_flagged = 0;     ///< runs flagging the planted area.

  std::set<std::string> signatures;  ///< distinct verdict signatures.
  std::set<std::string> racy_areas;  ///< area names flagged in any run.
  /// Replayable witnesses: kThread logs (dsmr_replay / ReplayGate ready),
  /// one per distinct racy signature, with program text + schedule in the
  /// metadata.
  std::vector<record::Log> witnesses;

  /// The certificate: every interleaving of the reduced space ran clean.
  bool certified_clean() const {
    return complete && deadlocks == 0 && racy_interleavings == 0;
  }
};

/// Explores one interleaving per Mazurkiewicz trace of `program` on the
/// threaded-backend op model (every interleaving with dpor off).
/// Deterministic: same program + options => identical report, including
/// all counters.
ExploreReport explore_program(const fuzz::Program& program,
                              const ExploreOptions& options = {});

/// The size gate for the exhaustive fuzz-grid invariant (by default <= 3
/// ranks, <= 8 IR ops per rank). Sleeps/computes flatten to kTick —
/// independent of everything, so one ordering of them is explored — so
/// only non-tick ops count against the per-rank cap.
struct Eligibility {
  bool eligible = false;
  std::string reason;  ///< why not, when ineligible.
};
Eligibility exhaustive_eligible(const fuzz::Program& program, int max_ranks = 3,
                                std::size_t max_ops_per_rank = 8);

/// The exhaustive invariant, per expectation: kClean must certify clean,
/// kRacy must flag the planted area on EVERY interleaving, kSometimes must
/// flag it on AT LEAST ONE (the rate-to-proof upgrade); any deadlock or
/// tripped budget is a failure. Returns human-readable failures, empty on
/// pass.
std::vector<std::string> check_exhaustive(const fuzz::Program& program,
                                          const ExploreReport& report);

/// Planted-bug area name (fuzz::area_name) for non-clean programs, "" for clean.
std::string planted_area_name(const fuzz::Program& program);

}  // namespace dsmr::explore
