// Running fuzz::Programs on the real-threads backend, and the differential
// harness that compares backends by verdict signature.
//
// The same Program IR drives both backends: spawn_program (fuzz/program.hpp)
// installs coroutines on the sim World, and spawn_program_threaded runs the
// explorer's lowering (explore::flatten_program) on a ThreadWorld, step for
// step — every phase boundary a dissemination barrier over tagged signals
// (every BoundaryKind is a full happens-before frontier and the collective
// *values* never affect detection, so the barrier is verdict-equivalent;
// Phase::skip_rank maps to the arrive-only half, as in
// pgas::Team::barrier_arrive). One lowering means the program DPOR
// certifies, and whose witnesses ReplayGate forces onto threads, is the
// program the threads execute.
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
#include <set>
#include <string>
#include <vector>

#include "fuzz/generate.hpp"
#include "fuzz/program.hpp"
#include "record/recorder.hpp"
#include "runtime/thread_world.hpp"
#include "util/cli.hpp"

namespace dsmr::fuzz {

/// Knobs for one threaded execution of a program.
struct ThreadRunOptions {
  int shards = 8;  ///< detector shards per home (ThreadWorldConfig::shards).
  std::chrono::milliseconds timeout{10'000};
  core::DetectorMode mode = core::DetectorMode::kDualClock;
  /// Record this run's ordering (record/recorder.hpp); finish() is called
  /// with the run's verdicts before run_program_threaded returns.
  record::Recorder* recorder = nullptr;
  /// Replay a recorded log instead of free-running (gated, deterministic).
  const record::Log* replay = nullptr;
};

/// Allocates the program's areas (alloc_areas, the layout the sim spawn
/// path uses) and has every rank of a not-yet-run ThreadWorld execute its
/// steps of explore::flatten_program(program).
ProgramHandles spawn_program_threaded(runtime::ThreadWorld& world, const Program& program);

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
  /// Sim oracle: fuzz::check_program over schedule seeds 1..K.
  std::uint64_t sim_schedule_seeds = 2;
  bool compare_sim = true;              ///< false: threaded self-check only.
};

/// Besides the free-running reps, every program gets one extra recorded
/// threaded run whose log is folded offline and gate-replayed twice: fold
/// and both replays must reproduce the recorded run's verdict signature
/// exactly. This turns kSometimes manifestations — informational in the
/// free-running reps — into replayable coordinates: whatever the recorded
/// schedule decided IS pinned and must re-derive identically.
struct BackendDiffResult {
  std::vector<std::string> failures;  ///< human-readable divergences.
  std::uint64_t thread_runs = 0;
  std::uint64_t thread_manifested = 0;  ///< threaded runs with >= 1 race.
  std::uint64_t sim_runs = 0;           ///< check_program grid runs.
  std::uint64_t sim_manifested = 0;     ///< ... with a true race.
  std::uint64_t record_replay_checks = 0;  ///< recorded runs verified.
  std::uint64_t checks = 0;    ///< inline checks across threaded runs.
  std::uint64_t wall_ns = 0;   ///< summed threaded run() wall time.

  bool passed() const { return failures.empty(); }
};

BackendDiffResult check_program_backends(const Program& program,
                                         const BackendDiffOptions& options);

/// The `dsmr_fuzz --backend threaded|both` sweep: generates programs with
/// the same seed→(clean | planted kind) draw as the uniform sim sweep
/// (config_for_seed), runs each through
/// check_program_backends, and aggregates.
struct ThreadSweepConfig {
  GenConfig base;
  util::SeedRange seeds{1, 64};
  double planted_fraction = 0.5;
  std::vector<BugKind> bug_kinds;
  BackendDiffOptions diff;
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
