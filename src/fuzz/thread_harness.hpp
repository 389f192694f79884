// Running fuzz::Programs on the real-threads backend, and the differential
// harness that compares backends by verdict signature.
//
// The same Program IR drives both backends: spawn_program (fuzz/program.hpp)
// installs coroutines on the sim World, spawn_program_threaded installs the
// blocking twin of the same interpreter on a ThreadWorld — op for op, with
// every phase boundary executed as a dissemination barrier over tagged
// signals (every BoundaryKind is a full happens-before frontier and the
// collective *values* never affect detection, so the barrier is
// verdict-equivalent; Phase::skip_rank maps to the arrive-only half, as in
// pgas::Team::barrier_arrive).
//
// The comparison contract is deliberately weaker than the sim-vs-sim grid:
// real schedules are not seeded-replayable, so runs are compared by final
// *verdict signature* — did the run complete, and which areas raced — never
// by schedule or by per-event clock values. Per expectation:
//
//  * kClean     — zero races on every run of BOTH backends. Sound on the
//    threaded backend because the generator's cleanliness discipline
//    (fuzz/generate.hpp) only needs program order + boundary frontiers +
//    lock handoff + completion edges, all of which the ThreadWorld detector
//    honors; any flag on either backend is a divergence.
//  * kRacy      — the planted area must be flagged on EVERY run of BOTH
//    backends: the construction isolates the contested area from all
//    clock-merge paths, so whichever side the shard mutex serializes
//    second observes a concurrent stored clock.
//  * kSometimes — manifestation is schedule luck; real and simulated
//    schedule spaces differ (the threaded backend has no home node clock
//    for probe gets to merge), so rates are compared *informationally*
//    only — counted, reported, never failed on.
//
// A threaded run that fails to complete (stuck ranks at the deadline) is
// always a divergence: generated programs are deadlock-free by construction.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fuzz/generate.hpp"
#include "fuzz/program.hpp"
#include "record/recorder.hpp"
#include "runtime/thread_world.hpp"
#include "util/cli.hpp"

namespace dsmr::fuzz {

/// Tag of the dissemination-barrier signal for (phase, round) on the
/// threaded backend. Exported so explore/model.hpp flattens phase
/// boundaries into exactly the signal/wait micro-ops run_boundary executes
/// (one source of truth: a synthesized log replays through ReplayGate only
/// if every tag matches).
std::uint64_t boundary_signal_tag(std::size_t phase, std::uint32_t round);

/// Knobs for one threaded execution of a program.
struct ThreadRunOptions {
  int shards = 8;  ///< detector shards per home (ThreadWorldConfig::shards).
  std::chrono::milliseconds timeout{10'000};
  core::DetectorMode mode = core::DetectorMode::kDualClock;
  bool lock_clock_handoff = true;
  bool acked_puts = true;
  /// Record this run's ordering (record/recorder.hpp); finish() is called
  /// with the run's verdicts before run_program_threaded returns.
  record::Recorder* recorder = nullptr;
  /// Replay a recorded log instead of free-running (gated, deterministic).
  const record::Log* replay = nullptr;
};

/// Allocates the program's areas (same homes and "fz<i>" names as the sim
/// spawn path) and installs the blocking interpreter on every rank of a
/// not-yet-run ThreadWorld.
ProgramHandles spawn_program_threaded(runtime::ThreadWorld& world,
                                      std::shared_ptr<const Program> program);

/// One threaded run's verdict signature.
struct ThreadProgramOutcome {
  runtime::ThreadRunReport report;
  std::set<std::string> racy_areas;          ///< area names with >= 1 report.
  std::vector<core::RaceReport> reports;     ///< full reports, for signatures.
};

ThreadProgramOutcome run_program_threaded(const Program& program,
                                          const ThreadRunOptions& options);

/// One program, both backends (or threaded-only), signatures compared per
/// the expectation contract above.
struct BackendDiffOptions {
  ThreadRunOptions thread;
  int thread_reps = 3;                  ///< real-schedule samples.
  std::uint64_t sim_schedule_seeds = 2; ///< sim oracle runs (seeds 1..K).
  bool compare_sim = true;              ///< false: threaded self-check only.
  /// Record one extra threaded run, fold its log offline, and gate-replay it
  /// twice: fold and both replays must reproduce the recorded run's verdict
  /// signature exactly. This turns kSometimes manifestations — informational
  /// in the free-running reps — into replayable coordinates: whatever the
  /// recorded schedule decided IS pinned and must re-derive identically.
  bool record_replay = true;
};

struct BackendDiffResult {
  std::vector<std::string> failures;  ///< human-readable divergences.
  std::uint64_t thread_runs = 0;
  std::uint64_t thread_manifested = 0;  ///< threaded runs with >= 1 race.
  std::uint64_t sim_runs = 0;
  std::uint64_t sim_manifested = 0;
  std::uint64_t record_replay_checks = 0;  ///< recorded runs verified.
  std::uint64_t checks = 0;    ///< inline checks across threaded runs.
  std::uint64_t wall_ns = 0;   ///< summed threaded run() wall time.

  bool passed() const { return failures.empty(); }
};

BackendDiffResult check_program_backends(const Program& program,
                                         const BackendDiffOptions& options);

/// The `dsmr_fuzz --backend threaded|both` sweep: generates programs with
/// the same seed→(clean | planted kind) mapping as the uniform sim sweep
/// (plant_for_seed / kind_for_seed), runs each through
/// check_program_backends, and aggregates.
struct ThreadSweepConfig {
  GenConfig base;
  util::SeedRange seeds{1, 64};
  double planted_fraction = 0.5;
  std::vector<BugKind> bug_kinds;
  BackendDiffOptions diff;
  bool verbose = false;
};

struct ThreadSweepDivergence {
  std::uint64_t program_seed = 0;
  std::string arm;      ///< "clean" or the planted kind name.
  std::string failure;
};

struct ThreadSweepResult {
  std::uint64_t programs = 0;
  std::uint64_t clean_programs = 0;
  std::uint64_t racy_programs = 0;
  std::uint64_t sometimes_programs = 0;
  std::uint64_t thread_runs = 0;
  std::uint64_t thread_manifested = 0;
  std::uint64_t sim_runs = 0;
  std::uint64_t sim_manifested = 0;
  std::uint64_t record_replay_checks = 0;
  std::uint64_t checks = 0;
  std::uint64_t wall_ns = 0;
  std::vector<ThreadSweepDivergence> divergences;

  /// Inline detector throughput over the threaded runs (the docs/perf.md
  /// real-cores number).
  double checks_per_sec() const {
    return wall_ns == 0 ? 0.0
                        : static_cast<double>(checks) * 1e9 /
                              static_cast<double>(wall_ns);
  }
};

ThreadSweepResult run_thread_sweep(const ThreadSweepConfig& config);

}  // namespace dsmr::fuzz
