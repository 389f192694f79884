// Stateful exhaustive exploration with dynamic partial-order reduction
// and sleep sets (Flanagan & Godefroid; Godefroid's sleep-set discipline;
// CDSChecker is the engineering exemplar — see ROADMAP item 3).
//
// The explorer drives explore::Executor through a depth-first search over
// scheduling choices. The search is stateful: each transition's events
// are folded through one record::Folder as soon as the transition
// executes, and stepping back out of a frame undoes both
// (Executor::undo, Folder::restore to the frame's checkpoint), so every
// DFS edge is executed and folded exactly once — no prefix is re-run. Every
// maximal run's verdict signature is read off the fold; DPOR computes
// backtrack points from explore::dependent() over the executed trace's
// happens-before clocks, and sleep sets kill branches whose first step
// commutes with an already-explored sibling subtree. With both on, the
// search visits at least one representative of every Mazurkiewicz trace —
// so over the reduced space, "no racy interleaving" is a CERTIFICATE, not
// a sample, and every kSometimes manifestation rate becomes a proof of
// existence (the witness log replays it on real threads).
#pragma once

#include <cstdint>
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
  /// DPOR backtracking off => every node backtracks into every enabled
  /// rank: naive full enumeration, the cross-check baseline.
  bool dpor = true;
  /// Sleep sets compose with either setting; the naive baseline runs with
  /// both off.
  bool sleep_sets = true;
  IndependenceOptions independence;
  /// Explored + sleep-blocked prefixes budget; tripping it leaves
  /// ExploreReport::limit set and the exploration incomplete.
  std::uint64_t max_interleavings = 1u << 20;
  /// Budget on ExploreReport::transitions (0 = unlimited). Each DFS edge
  /// counts once, so a given budget admits more of the search than it did
  /// when every backtrack re-ran its prefix.
  std::uint64_t max_transitions = 0;
  /// Witness logs kept (one per distinct racy signature, first sighting).
  std::size_t max_witnesses = 4;
};

struct ExploreReport {
  /// True iff the DFS exhausted the (reduced) space within budget. Only a
  /// complete exploration certifies; an incomplete one is reported as a
  /// limit failure by check_exhaustive.
  bool complete = false;
  std::string limit;  ///< which budget tripped; "" when complete.

  std::uint64_t interleavings = 0;       ///< maximal runs executed.
  std::uint64_t deadlocks = 0;           ///< runs that did not complete.
  std::uint64_t sleep_blocked = 0;       ///< prefixes killed by sleep sets.
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

/// Explores every (reduced) interleaving of `program` on the
/// threaded-backend op model. Deterministic: same program + options =>
/// identical report, including all counters.
ExploreReport explore_program(const fuzz::Program& program,
                              const ExploreOptions& options = {});

/// The size gate for the exhaustive fuzz-grid invariant (ISSUE 9: <= 3
/// ranks, <= 8 IR ops per rank). Sleeps/computes flatten to kTick —
/// independent of everything, pruned to one ordering by sleep sets — so
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

/// Planted-bug area name ("fz<i>") for non-clean programs, "" for clean.
std::string planted_area_name(const fuzz::Program& program);

}  // namespace dsmr::explore
