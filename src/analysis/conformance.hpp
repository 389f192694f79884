// Differential conformance: every detector the repo ships, cross-checked on
// every explored schedule.
//
// The paper's claim is only as strong as the detector's agreement with its
// oracles, so this harness runs a workload across a (seed × perturbation)
// grid — in parallel, one World per schedule — and for each completed run
// cross-checks four independent verdict sources:
//
//  * the live detector (epoch fast path, as production runs it),
//  * the fold of the run's ordering log at the same mode (must reproduce
//    the live reports),
//  * the full-vector-clock oracle on every folded access (must agree with
//    the fast path bit-for-bit, in both detector modes),
//  * offline ground truth (every dual-clock report is a true race —
//    precision 1.0, the paper's structural guarantee), plus the cross-mode
//    write-verdict identity (dual and single clocks agree on every write,
//    §IV.D). Area recall is *tracked* but deliberately not an invariant:
//    the online scheme compares each access only against the area's latest
//    access, so a race hidden behind a later ordered access is missed — on
//    unlucky schedules an entire racy area can go unflagged (the
//    pipeline_window2 and sparse-barrier stencil scenarios exhibit this).
//
// Any violated invariant is a *disagreement*: a test failure carrying its
// reproducing (seed, perturbation) pair, and — when a witness directory is
// configured — the schedule's recorded ordering log (record/log.hpp), which
// `dsmr_replay` folds and renders as a trace.
//
// The Eraser-style lockset baseline is also run, but as a *measured
// comparison*, not an invariant: lockset flags locking-discipline
// violations, which by design disagrees with happens-before verdicts on
// message-ordered programs (false positives) and write-read races that
// never reach shared-modified state (false negatives). Divergences are
// counted and reported, never failures.
//
// Fault axis (net/fault.hpp): when `ConformanceOptions::fault_plans` is
// non-empty the grid becomes (seed × perturbation × (base + plans)) and two
// robustness invariants join the differential checks:
//  * fault-transparency — a *recoverable* plan (bounded loss/dup/delay,
//    healing partitions, crash–restart) must leave the verdicts of a kNever
//    scenario bit-identical to the fault-free run of the same (seed,
//    perturbation): the reliable transport hides the fault. Verdicts are
//    compared by a logical signature keyed on (rank, per-rank access index),
//    since raw log indices shift when retries reshuffle global scheduling.
//    kSometimes scenarios are exempt: their manifestation is schedule luck,
//    which faults legitimately re-roll.
//  * clean-failure — an *unrecoverable* plan (permanent crash or partition)
//    must end in the quiescence watchdog's structured diagnostic: never a
//    hang (event-cap hit), never a silent stop, and if the run does manage
//    to complete, never verdicts that differ from the fault-free schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "net/fault.hpp"
#include "runtime/world.hpp"
#include "sim/perturb.hpp"

namespace dsmr::analysis {

/// The workload under test: given a configured World (seed already set),
/// allocate data and spawn the programs. Must be reentrant — a parallel
/// grid invokes it concurrently from pool workers, one World per call.
using WorkloadFn = std::function<void(runtime::World&)>;

/// What a scenario promises about races across *all* legal schedules.
enum class RaceExpectation {
  kNever,      ///< correctly synchronized: any report or truth pair is a failure.
  kSometimes,  ///< known-buggy or intentionally racy: manifestation is tracked.
};
const char* to_string(RaceExpectation e);

/// A named workload variant with its race expectation — the unit the
/// conformance grid iterates over.
struct Scenario {
  std::string name;
  std::string description;
  RaceExpectation expect = RaceExpectation::kNever;
  int min_ranks = 2;           ///< spawn precondition (e.g. master + worker).
  bool may_deadlock = false;   ///< none of the builtins; hook for user scenarios.
  WorkloadFn spawn;
};

/// All shipped workload variants: clean and buggy stencil/histogram/
/// pipeline/random/master_worker configurations.
const std::vector<Scenario>& builtin_scenarios();

/// Lookup by name; nullptr when unknown.
const Scenario* find_scenario(const std::string& name);

/// One schedule's verdicts from every source, plus any failed invariants.
/// Every offline source is a fold of the run's ordering log.
struct RunVerdicts {
  std::uint64_t seed = 0;
  sim::PerturbConfig perturb{};
  net::FaultPlan fault{};  ///< this run's wire-fault plan ("off" on base runs).
  bool completed = false;
  bool hit_event_cap = false;  ///< stopped by max_events — a hang, not a deadlock.
  /// The quiescence watchdog's dump; non-empty exactly when non-quiescent.
  std::string diagnostic;
  /// Schedule-comparable verdict fingerprint: ground-truth pairs, live
  /// reported pairs, and the dual-clock fold's pair set, all keyed by
  /// logical (rank, per-rank issue index) access identities plus the truth
  /// areas. Raw log indices depend on the global event order, which
  /// faults and retries reshuffle; per-rank issue order is program order,
  /// so logical ids line up across fault variants of one (program, seed,
  /// perturbation). The single-clock fold's pair set is deliberately
  /// excluded: its read verdicts are approximate in both directions
  /// (§IV.D) and genuinely timing-dependent, so they are not schedule-
  /// invariant even on clean programs; its write verdicts are already
  /// pinned to the dual set by the cross-mode-writes invariant. Empty for
  /// incomplete runs. Fault-transparency compares these.
  std::string signature;
  std::uint64_t live_reports = 0;      ///< production detector, during the run.
  std::uint64_t truth_pairs = 0;       ///< offline ground truth.
  std::uint64_t truth_areas = 0;
  std::uint64_t fast_flagged = 0;      ///< epoch fast-path fold, run's mode.
  std::uint64_t oracle_flagged = 0;    ///< full-VC oracle on that fold.
  std::uint64_t dual_flagged = 0;      ///< fast-path fold, dual-clock mode.
  std::uint64_t single_flagged = 0;    ///< fast-path fold, single-clock mode.
  std::uint64_t lockset_warnings = 0;  ///< Eraser baseline (informational).
  bool lockset_covers_truth = true;    ///< truth racy areas ⊆ lockset flags.
  double area_recall = 1.0;            ///< tracked quality metric, not an invariant.
  /// Violated invariants ("check: detail"); empty = conformant.
  std::vector<std::string> failed_checks;
};

/// A conformance failure with its deterministic repro coordinate.
struct Divergence {
  std::string scenario;
  std::uint64_t seed = 0;
  sim::PerturbConfig perturb{};
  net::FaultPlan fault{};   ///< the run's fault plan ("off" on base runs).
  std::string check;        ///< which invariant broke.
  std::string detail;
  /// The coordinate's recorded ordering log ("" when no witness directory
  /// was set, or the coordinate's wire layout cannot be recorded).
  std::string witness;

  std::string describe() const;
};

struct ConformanceOptions {
  runtime::WorldConfig base;  ///< seed/perturb overridden per schedule.
  std::uint64_t first_seed = 1;
  std::uint64_t seeds = 16;
  int threads = 1;
  /// Perturbation variants per seed; keep the identity first so every seed
  /// also runs its base schedule.
  std::vector<sim::PerturbConfig> perturbations{sim::PerturbConfig{}};
  /// When non-empty, disagreement coordinates are re-run serially with a
  /// recorder and their ordering logs written here as
  /// `<scenario>-seed<N>[-skew...][-fault...].dsmrlog`.
  std::string witness_dir;
  /// Fault plans to run *in addition to* the fault-free base of every
  /// (seed, perturbation) point; the grid is plan-minor, so each base run
  /// directly precedes its fault variants in `runs`. Plans must be
  /// wire-enabled (net::FaultPlan::wire_enabled).
  std::vector<net::FaultPlan> fault_plans;
  /// Enforce the fault-transparency invariant on recoverable plans (kNever
  /// scenarios only — kSometimes manifestation is schedule luck that faults
  /// legitimately re-roll). The clean-failure invariant on unrecoverable
  /// plans is always enforced.
  bool expect_fault_transparency = true;
};

struct ConformanceReport {
  std::string scenario;
  RaceExpectation expect = RaceExpectation::kNever;
  /// (seed-major, perturbation-mid, fault-plan-minor) order; plan index 0 of
  /// every (seed, perturbation) point is the fault-free base run.
  std::vector<RunVerdicts> runs;
  std::uint64_t base_schedules = 0;       ///< fault-free grid points.
  std::uint64_t runs_with_reports = 0;    ///< base runs only.
  std::uint64_t runs_with_truth = 0;      ///< base runs only.
  std::uint64_t incomplete_runs = 0;      ///< base runs only.
  std::uint64_t lockset_divergences = 0;  ///< informational, never failures.
  std::uint64_t fault_runs = 0;              ///< runs under a fault plan.
  std::uint64_t fault_transparent_runs = 0;  ///< fault runs verdict-identical to base.
  std::uint64_t record_replay_checked = 0;   ///< runs held to invariant 6 (record→fold).
  std::uint64_t watchdog_runs = 0;  ///< non-quiescent runs that produced a diagnostic.
  double min_area_recall = 1.0;           ///< worst "was the datum flagged" score.
  std::vector<Divergence> disagreements;  ///< hard failures.

  bool passed() const { return disagreements.empty(); }
  double manifestation_rate() const {
    const double denom = static_cast<double>(
        base_schedules != 0 ? base_schedules : runs.size());
    return runs.empty() ? 0.0 : static_cast<double>(runs_with_reports) / denom;
  }

  std::string render() const;
  /// One JSON object (machine-readable CI artifact): totals, per-run
  /// outcomes, and disagreements with repro coordinates.
  void write_json(std::ostream& out) const;
};

/// Cross-checks one finished run (building block; exposed for tests).
/// `world` must have been World::record()ed and run already: every check
/// folds the run's ordering log.
RunVerdicts check_run(runtime::World& world, const runtime::RunReport& report);

/// Runs the full (seed × perturbation) grid for one scenario on
/// `options.threads` workers and folds the report deterministically.
ConformanceReport run_conformance(const Scenario& scenario,
                                  const ConformanceOptions& options);

}  // namespace dsmr::analysis
