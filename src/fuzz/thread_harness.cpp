#include "fuzz/thread_harness.hpp"

#include <algorithm>
#include <cstring>
#include <memory>

#include "explore/model.hpp"
#include "fuzz/harness.hpp"
#include "record/replay.hpp"
#include "util/assert.hpp"

namespace dsmr::fuzz {

namespace {

using explore::Step;
using explore::StepKind;
using runtime::ThreadProcess;
using runtime::ThreadWorld;

/// Executes `steps`, one rank's share of the lowering, with the same payload
/// stamps as program.cpp's program_task.
void run_steps(ThreadProcess& p, const std::vector<Step>& steps, std::uint32_t area_bytes,
               const std::vector<mem::GlobalAddress>& areas) {
  std::uint64_t stamp = (static_cast<std::uint64_t>(p.rank()) + 1) << 32;
  for (const Step& step : steps) {
    switch (step.kind) {
      case StepKind::kTick:
        if (step.compute) {
          p.compute(step.duration);
        } else {
          p.sleep(step.duration);
        }
        break;
      case StepKind::kAccess: {
        const mem::GlobalAddress area = areas[static_cast<std::size_t>(step.area)];
        if (step.lock != -1) p.lock(areas[static_cast<std::size_t>(step.lock)]);
        if (step.write) {
          std::vector<std::byte> bytes(area_bytes, std::byte{0});
          ++stamp;
          std::memcpy(bytes.data(), &stamp, std::min(sizeof(stamp), bytes.size()));
          p.put(area, bytes);
        } else {
          p.get(area, area_bytes);
        }
        if (step.lock != -1) p.unlock(areas[static_cast<std::size_t>(step.lock)]);
        break;
      }
      case StepKind::kSignal:
        p.signal(step.peer, step.tag);
        break;
      case StepKind::kWait:
        p.wait_signal(step.tag);
        break;
    }
  }
}

std::string ranks_to_string(const std::vector<Rank>& ranks) {
  std::string out;
  for (const Rank r : ranks) {
    if (!out.empty()) out += ",";
    out += std::to_string(r);
  }
  return out;
}

}  // namespace

ProgramHandles spawn_program_threaded(ThreadWorld& world, const Program& program) {
  DSMR_REQUIRE(world.nprocs() == program.nprocs,
               "program generated for " << program.nprocs << " ranks, world has "
                                        << world.nprocs());
  // flatten_program validates the program.
  auto flat = std::make_shared<const explore::FlatProgram>(explore::flatten_program(program));
  ProgramHandles handles = alloc_areas(world, program);
  for (Rank r = 0; r < world.nprocs(); ++r) {
    world.spawn(r, [flat, areas = handles.areas](ThreadProcess& p) {
      run_steps(p, flat->steps[static_cast<std::size_t>(p.rank())], flat->area_bytes, areas);
    });
  }
  return handles;
}

ThreadProgramOutcome run_program_threaded(const Program& program,
                                          const ThreadRunOptions& options) {
  runtime::ThreadWorldConfig config;
  config.nprocs = program.nprocs;
  config.mode = options.mode;
  config.shards = options.shards;
  config.run_timeout = options.timeout;
  // Areas are small and bump-allocated; size the segment to fit them.
  config.segment_bytes =
      std::max<std::uint32_t>(1 << 16, program.area_bytes *
                                           (static_cast<std::uint32_t>(program.areas) + 1));
  config.recorder = options.recorder;
  config.replay = options.replay;
  ThreadWorld world(config);
  spawn_program_threaded(world, program);
  ThreadProgramOutcome outcome;
  outcome.report = world.run();
  for (const auto& report : world.races().unique_by_area()) {
    outcome.racy_areas.insert(report.area_name);
  }
  outcome.reports = world.races().reports();
  if (options.recorder != nullptr) {
    options.recorder->finish(outcome.reports, outcome.report.completed,
                             outcome.report.stuck_ranks);
  }
  return outcome;
}

BackendDiffResult check_program_backends(const Program& program,
                                         const BackendDiffOptions& options) {
  BackendDiffResult result;
  const std::string planted_area = program.planted ? area_name(program.planted->area) : "";
  auto fail = [&result](std::string what) { result.failures.push_back(std::move(what)); };

  // --- sim oracle: the full fuzz check on the same schedule seeds ---
  if (options.compare_sim && options.sim_schedule_seeds > 0) {
    FuzzCheckOptions check;
    check.schedule_seeds = options.sim_schedule_seeds;
    const ProgramVerdict sim = check_program(program, check);
    result.sim_runs = sim.report.runs.size();
    result.sim_manifested = sim.manifested_runs;
    for (const analysis::Divergence& divergence : sim.failures) {
      fail("sim: " + divergence.describe());
    }
  }

  // --- threaded runs ---
  for (int rep = 0; rep < options.thread_reps; ++rep) {
    const auto outcome = run_program_threaded(program, options.thread);
    ++result.thread_runs;
    result.checks += outcome.report.checks;
    result.wall_ns += outcome.report.wall_ns;
    if (!outcome.report.completed) {
      fail("threaded run " + std::to_string(rep) + " stuck (ranks " +
           ranks_to_string(outcome.report.stuck_ranks) +
           ") — generated programs are deadlock-free");
      continue;
    }
    if (!outcome.racy_areas.empty()) ++result.thread_manifested;
    switch (program.expect) {
      case Expectation::kClean:
        if (!outcome.racy_areas.empty()) {
          fail("clean program raced on threaded run " + std::to_string(rep) +
               ": area " + *outcome.racy_areas.begin());
        }
        break;
      case Expectation::kRacy:
        if (outcome.racy_areas.count(planted_area) == 0) {
          fail("planted race missed on threaded run " + std::to_string(rep) +
               ": area " + planted_area);
        }
        break;
      case Expectation::kSometimes:
        break;  // manifestation is schedule luck — counted, never failed on.
    }
  }

  // --- record → replay determinism ---
  // One extra recorded run; its log must fold offline AND gate-replay (twice)
  // to the recorded verdicts. kSometimes included: whatever this schedule
  // manifested is now a pinned, replayable coordinate.
  ThreadRunOptions recording = options.thread;
  record::Recorder recorder(static_cast<std::uint32_t>(program.nprocs),
                            record::Backend::kThread, recording.mode,
                            runtime::ThreadWorldConfig::lock_clock_handoff,
                            runtime::ThreadWorldConfig::acked_puts);
  recording.recorder = &recorder;
  const auto live = run_program_threaded(program, recording);
  result.checks += live.report.checks;
  result.wall_ns += live.report.wall_ns;
  const record::Log& log = recorder.log();
  const std::string fold = record::check_record_replay(log);
  if (!fold.empty()) fail("record fold: " + fold);
  ThreadRunOptions replaying = options.thread;
  replaying.replay = &log;
  const record::AreaIndex areas = record::make_area_index(log.areas);
  for (int rep = 0; rep < 2; ++rep) {
    const auto outcome = run_program_threaded(program, replaying);
    const record::VerdictSignature sig = record::make_signature(
        areas, outcome.reports, outcome.report.completed,
        outcome.report.stuck_ranks);
    if (!(sig == log.live)) {
      fail("replay " + std::to_string(rep) +
           " diverged from its recorded run: " + sig.to_string() + " vs " +
           log.live.to_string());
    }
  }
  ++result.record_replay_checks;
  return result;
}

ThreadSweepResult run_thread_sweep(const ThreadSweepConfig& config) {
  ThreadSweepResult result;
  for (std::uint64_t i = 0; i < config.seeds.count; ++i) {
    const std::uint64_t seed = config.seeds.first + i;
    const GenConfig gen =
        config_for_seed(config.base, seed, config.planted_fraction, config.bug_kinds);
    const Program program = generate_program(gen);

    ++result.programs;
    std::string arm = "clean";
    switch (program.expect) {
      case Expectation::kClean:
        ++result.clean_programs;
        break;
      case Expectation::kRacy:
        ++result.racy_programs;
        arm = to_string(gen.bug_kind);
        break;
      case Expectation::kSometimes:
        ++result.sometimes_programs;
        arm = to_string(gen.bug_kind);
        break;
    }

    const auto diff = check_program_backends(program, config.diff);
    result.thread_runs += diff.thread_runs;
    result.thread_manifested += diff.thread_manifested;
    result.sim_runs += diff.sim_runs;
    result.sim_manifested += diff.sim_manifested;
    result.record_replay_checks += diff.record_replay_checks;
    result.checks += diff.checks;
    result.wall_ns += diff.wall_ns;
    for (const auto& failure : diff.failures) {
      result.divergences.push_back(ThreadSweepDivergence{seed, arm, failure});
    }
  }
  return result;
}

}  // namespace dsmr::fuzz
