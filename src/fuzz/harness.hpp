// Fuzz harness: one generated program through the full differential
// conformance grid, plus the fuzz-only invariants its construction allows —
// and the sweep layer that schedules which programs to try next.
//
// A generated program is registered as a first-class analysis::Scenario and
// run through analysis::run_conformance, so every (schedule seed ×
// perturbation) gets the complete cross-check stack (epoch fast path vs
// full-VC oracle, live vs replay, precision, cross-mode writes). On top,
// the generator's construction guarantees are checked per expectation:
//
//  * kClean     — zero reports and zero truth pairs on every schedule
//    (conformance's race-in-clean-scenario invariant covers this);
//  * kRacy      — the planted pair must manifest on EVERY schedule, in
//    ground truth and in BOTH detector modes (check
//    `planted-bug-not-detected`; a raceless schedule indicts the generator
//    itself: `planted-race-vanished`);
//  * kSometimes — the planted bug is schedule-dependent: it must manifest
//    on at least one explored schedule (`sometimes-bug-never-manifested`
//    otherwise — the generator guarantees the base variant manifests by
//    construction), every manifesting schedule must be flagged by both
//    detector modes and live (`sometimes-bug-not-detected`), silent
//    schedules must produce zero reports (`sometimes-noise`), and the
//    manifestation *rate* over the grid is measured and carried through
//    repro files and JSON summaries.
//
// Fault plans (net/fault.hpp) plug straight in: each wire-enabled plan in
// `FuzzCheckOptions::fault_plans` rides the conformance grid's fault axis
// next to every (schedule seed × perturbation) base point. On top of the
// conformance layer's clean-failure machinery, the fuzz layer enforces its
// own *fault-transparency*: kClean and kRacy programs have schedule-
// invariant verdicts by construction, so every completed recoverable fault
// run must match its fault-free base's verdict signature bit-for-bit
// (kSometimes manifestation is schedule luck, which faults legitimately
// re-roll — exempt). A plan carrying `drop_live_reports` re-arms the
// test-only harness hook (pretend the live detector stayed silent, so every
// planted-bug schedule violates planted-bug-not-detected) so CI can
// exercise the failure → shrink → repro → replay loop end-to-end without a
// real detector bug.
//
// Failing coordinates serialize into a self-contained repro file (program
// text + schedule coordinate + fault plan + fired check + measured
// manifestation) that `dsmr_fuzz --replay` re-runs bit-identically — the
// full (seed, perturbation, fault-plan) replay coordinate round-trips.
//
// The sweep layer (`run_fuzz_sweep`) turns program seeds into verdicts at
// scale, under one of two seed schedules:
//
//  * uniform  — the classic sweep: sequential seeds, one op-mix profile,
//    planted kinds hash-assigned; bit-identical across thread counts.
//  * coverage — a novelty bandit (UCB over profile × {clean, bug kind}
//    arms): each finished program folds into a compact *coverage
//    signature* (sync/op/transport mix + verdict path), and arms that
//    keep producing unseen signatures get pulled more. With `corpus_dir`
//    set, signatures persist across runs (nightly CI keeps a corpus), so
//    novelty is judged against everything ever seen.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "analysis/conformance.hpp"
#include "fuzz/generate.hpp"
#include "fuzz/program.hpp"
#include "net/fault.hpp"
#include "sim/perturb.hpp"
#include "util/cli.hpp"

namespace dsmr::fuzz {

struct FuzzCheckOptions {
  std::uint64_t first_schedule_seed = 1;
  std::uint64_t schedule_seeds = 3;
  int threads = 1;
  /// Keep the identity perturbation first (as the conformance grid does):
  /// the kSometimes construction guarantees manifestation on the base
  /// variant, so dropping it voids that part of the contract.
  std::vector<sim::PerturbConfig> perturbations{sim::PerturbConfig{}};
  /// Fault plans for the grid's fault axis. Wire-enabled plans run next to
  /// every (seed, perturbation) base point and feed the fault-transparency
  /// and clean-failure invariants; any plan with `drop_live_reports` set
  /// arms the test-only detector-silence hook for the whole grid.
  std::vector<net::FaultPlan> fault_plans;
  std::string scenario_name = "fuzz";
  /// Arm the exhaustive-exploration invariant (explore/dpor.hpp): programs
  /// within explore::exhaustive_eligible size limits are run through
  /// DPOR+sleep-set exploration of the threaded op model — every
  /// kSometimes planted bug must be FOUND, kRacy must flag on every
  /// interleaving, and clean programs must CERTIFY clean over the reduced
  /// space. Off by default: exploration cost is exponential in program
  /// size, and the sampled grid stays the default contract.
  bool exhaustive = false;
  /// Budget for the exhaustive invariant; tripping it is a failure
  /// ("explore-limit" — an incomplete exploration certifies nothing).
  std::uint64_t exhaustive_max_interleavings = 1 << 20;
};

struct ProgramVerdict {
  analysis::ConformanceReport report;
  /// Conformance disagreements plus fuzz-invariant violations, each with
  /// its reproducing (schedule seed, perturbation).
  std::vector<analysis::Divergence> failures;
  /// Manifestation over the *fault-free* grid: completed base schedules
  /// with >= 1 ground-truth racing pair. (kClean programs: always 0; kRacy:
  /// must equal completed_runs; kSometimes: must be >= 1, the rate is the
  /// metric.) Fault runs are excluded — a fault variant is a different
  /// schedule, and the construction guarantees quantify over the fault-free
  /// grid; fault runs are instead held to transparency/clean-failure.
  std::uint64_t manifested_runs = 0;
  std::uint64_t completed_runs = 0;

  /// Exhaustive-exploration summary (FuzzCheckOptions::exhaustive). When
  /// the program is too large for the size gate, `explored` stays false
  /// and `explore_skipped` names the reason; otherwise the counters mirror
  /// explore::ExploreReport.
  bool explored = false;
  std::string explore_skipped;
  std::uint64_t explored_interleavings = 0;
  std::uint64_t explored_pruned = 0;
  std::uint64_t explored_racy = 0;
  std::uint64_t explored_planted_flagged = 0;
  std::uint64_t explore_signatures = 0;

  bool passed() const { return failures.empty(); }
  double manifestation_rate() const {
    return completed_runs == 0 ? 0.0
                               : static_cast<double>(manifested_runs) /
                                     static_cast<double>(completed_runs);
  }
};

/// Runs the program across the grid and evaluates every invariant. The
/// World uses default detection settings (dual-clock, acked puts, lock
/// handoff) — the regime the generator's cleanliness proof assumes.
ProgramVerdict check_program(const Program& program, const FuzzCheckOptions& options);

/// The stable leading name of a divergence check ("precision: 3/4 ..." →
/// "precision"); repro files record names, not details.
std::string check_name(const std::string& check);

// ---------------------------------------------------------------------------
// Repro files
// ---------------------------------------------------------------------------

/// A self-contained failing coordinate: program + schedule + fired check,
/// plus the grid-level manifestation measurement at find time.
struct Repro {
  std::string check;               ///< normalized check name.
  /// The failing run's fault plan — the third leg of the replay coordinate,
  /// serialized as its canonical plan text ("off" when fault-free).
  net::FaultPlan fault{};
  std::uint64_t program_seed = 0;  ///< generator provenance (0 = handwritten).
  std::uint64_t schedule_seed = 1;
  sim::PerturbConfig perturb{};
  bool shrunk = false;
  /// The measured manifestation over the full grid the failure was found
  /// on (manifested / completed schedules) — the kSometimes rate metadata;
  /// 0/0 when the grid never completed a run.
  std::uint64_t manifested = 0;
  std::uint64_t schedules = 0;
  /// Basename of the companion ordering log recorded at this coordinate
  /// ("" = none). The .repro + log pair replays byte-identically: re-running
  /// the coordinate in any process re-records the exact same bytes
  /// (check_repro_log).
  std::string record_log;
  Program program;
};

std::string serialize_repro(const Repro& repro);
std::optional<Repro> parse_repro(const std::string& text, std::string* error = nullptr);

/// Re-runs one exact (schedule seed, perturbation, fault plan) coordinate of
/// `program` with an ordering recorder attached and returns the sealed log's
/// serialized bytes. Deterministic: the same coordinate yields the same
/// bytes in any process, so recorded logs byte-compare across machines. The
/// log carries the program text and coordinate as metadata, making it
/// self-describing for dsmr_replay.
std::vector<std::byte> record_coordinate(const Program& program,
                                         std::uint64_t program_seed,
                                         std::uint64_t schedule_seed,
                                         const sim::PerturbConfig& perturb,
                                         const net::FaultPlan& fault);

/// Validates a repro's companion log: parses `log_bytes` (structured error on
/// corruption), checks its embedded verdicts fold back identically, then
/// re-records the repro's coordinate and byte-compares. "" = identical.
std::string check_repro_log(const Repro& repro,
                            std::span<const std::byte> log_bytes);

/// Re-runs the repro's single schedule under its recorded fault hook.
/// Returns the normalized names of every check that fired (empty = clean).
std::vector<std::string> replay_repro(const Repro& repro, int threads = 1);

/// True when replaying reproduces the recorded check.
bool reproduces(const Repro& repro, int threads = 1);

// ---------------------------------------------------------------------------
// Coverage signatures and seed scheduling
// ---------------------------------------------------------------------------

/// How the sweep picks the next program to generate.
enum class ScheduleMode : std::uint8_t { kUniform, kCoverage };
const char* to_string(ScheduleMode mode);
std::optional<ScheduleMode> parse_schedule_mode(const std::string& text);
/// Strict variant for library callers: panics on unknown names (the CLI
/// pre-validates with parse_schedule_mode and exits 2 instead).
ScheduleMode schedule_mode_from_name(const std::string& text);

/// The compact behavior fingerprint of one (program, verdict): expectation
/// and bug kind, log2-bucketed op-kind histogram (the wire-transport mix:
/// puts/gets/signals/waits and locked accesses each drive a different
/// message pattern), boundary-kind set, and the verdict path (manifestation
/// band, deadlocks, lockset divergence, area-recall band, failures).
/// Novelty of this string is the coverage signal.
std::string coverage_signature(const Program& program, const ProgramVerdict& verdict);

/// Signature persistence for cross-run coverage (`--corpus-dir`). The
/// directory is created on open; a corpus that cannot be created or read
/// is a hard error (DSMR_REQUIRE) — a silently-empty corpus would reset
/// novelty and look like a coverage win.
class Corpus {
 public:
  /// In-memory corpus (no persistence).
  Corpus() = default;
  /// Opens `dir`, loading `dir`/signatures.tsv when present.
  explicit Corpus(const std::string& dir);

  bool known(const std::string& signature) const {
    return signatures_.count(signature) != 0;
  }
  std::size_t size() const { return signatures_.size(); }

  /// Records a signature; returns true when it was new. New entries are
  /// appended to the backing file (when persistent) by flush().
  bool add(const std::string& signature, const std::string& arm, std::uint64_t seed);

  /// Appends this run's new entries to `dir`/signatures.tsv. No-op for
  /// in-memory corpora.
  void flush();

 private:
  std::string dir_;
  std::set<std::string> signatures_;
  std::vector<std::string> fresh_lines_;
};

// ---------------------------------------------------------------------------
// The sweep
// ---------------------------------------------------------------------------

/// One program's sweep outcome (deterministic order within the result).
struct SweepOutcome {
  bool ran = false;               ///< false past the budget cut.
  std::uint64_t program_seed = 0;
  std::string arm;                ///< "<profile>/<clean|bug-kind>".
  Expectation expect = Expectation::kClean;
  std::optional<BugKind> bug;
  std::uint64_t schedules = 0;
  std::uint64_t manifested = 0;
  std::uint64_t completed = 0;
  std::uint64_t fault_runs = 0;     ///< runs under a wire-fault plan.
  std::uint64_t watchdog_runs = 0;  ///< non-quiescent runs with a diagnostic.
  std::size_t ops = 0;
  std::string signature;
  bool novel = false;             ///< first sighting (run + corpus).
  bool recorded = false;          ///< a log was written under record_dir.
  std::vector<analysis::Divergence> failures;
  /// Exhaustive-exploration mirror (FuzzCheckOptions::exhaustive): whether
  /// this program was explored, why it was skipped when not, and the
  /// explored/racy interleaving counts (ProgramVerdict's counters).
  bool explored = false;
  std::string explore_skipped;
  std::uint64_t explored_interleavings = 0;
  std::uint64_t explored_racy = 0;
  /// Canonical text of the failing program (empty when it passed): repro
  /// writing must not depend on regenerating — under coverage scheduling
  /// the arm, not just the seed, determines the program.
  std::string program_text;
  std::string rendered;           ///< report text (verbose only).
};

/// Aggregates per expectation/bug-kind arm ("clean", "dropped-edge", ...).
struct KindStats {
  std::uint64_t programs = 0;
  std::uint64_t manifested_programs = 0;  ///< >= 1 manifesting schedule.
  std::uint64_t manifested_runs = 0;
  std::uint64_t completed_runs = 0;
  std::uint64_t failures = 0;

  double mean_manifestation() const {
    return completed_runs == 0 ? 0.0
                               : static_cast<double>(manifested_runs) /
                                     static_cast<double>(completed_runs);
  }
};

struct FuzzSweepConfig {
  /// Program-shape knobs. Under kUniform the caller applies its profile
  /// first; under kCoverage each arm re-applies its own profile on top.
  GenConfig base;
  std::string profile = "mixed";  ///< uniform-mode profile (also the label).
  ScheduleMode mode = ScheduleMode::kUniform;
  /// Uniform: the program seeds themselves. Coverage: seeds.count is the
  /// program budget and seeds.first offsets the per-draw seeds.
  util::SeedRange seeds{1, 64};
  /// Share of programs that carry a planted bug (uniform mode; coverage
  /// mode lets the bandit choose arms instead).
  double planted_fraction = 0.5;
  /// Planted kinds to draw from; infeasible kinds for the shape must
  /// already be filtered out (eligible_bug_kinds).
  std::vector<BugKind> bug_kinds;
  FuzzCheckOptions check;
  int threads = 1;
  bool verbose = false;
  std::string corpus_dir;  ///< "" = in-memory signatures only.
  /// When non-empty, every executed program's base coordinate (first
  /// schedule seed, identity perturbation, fault-free) is re-run with an
  /// ordering recorder and its log written as
  /// `<record_dir>/fuzz-s<seed>.dsmrlog` (record_coordinate) — the always-on
  /// recording story at fuzz scale.
  std::string record_dir;
  /// Polled between batches; return true to stop early (wall-clock budget).
  std::function<bool()> out_of_budget;
};

struct FuzzSweepResult {
  std::vector<SweepOutcome> outcomes;  ///< draw order; slots stay stable.
  std::uint64_t programs = 0;
  std::uint64_t planted = 0;
  std::uint64_t clean = 0;
  std::uint64_t schedules = 0;
  std::uint64_t fault_runs = 0;           ///< runs under a wire-fault plan.
  std::uint64_t watchdog_runs = 0;        ///< non-quiescent runs with a diagnostic.
  std::uint64_t distinct_signatures = 0;  ///< distinct within this run.
  std::uint64_t corpus_new = 0;           ///< new vs the loaded corpus.
  std::uint64_t recorded_logs = 0;        ///< logs written under record_dir.
  std::uint64_t explored_programs = 0;    ///< exhaustive invariant ran (opt-in).
  std::uint64_t explore_skipped_programs = 0;  ///< over the exhaustive size gate.
  std::uint64_t explored_interleavings = 0;    ///< total across explored programs.
  bool budget_hit = false;
  /// Keyed by "clean" / bug-kind name.
  std::map<std::string, KindStats> kinds;
};

/// Deterministic planted/clean decision per program seed (uniform mode): a
/// seed hash compared against the planted fraction, independent of
/// generation order.
bool plant_for_seed(std::uint64_t program_seed, double planted_fraction);
/// Deterministic kind pick among `kinds` for a planted seed.
BugKind kind_for_seed(std::uint64_t program_seed, const std::vector<BugKind>& kinds);

/// Runs the sweep: generates programs per the schedule mode, checks each
/// across the grid on `threads` pool workers, folds outcomes and coverage
/// deterministically (uniform: bit-identical across thread counts;
/// coverage: deterministic for a fixed config — the bandit folds batches
/// of a fixed size in draw order). Flushes the corpus before returning.
FuzzSweepResult run_fuzz_sweep(const FuzzSweepConfig& config);

}  // namespace dsmr::fuzz
