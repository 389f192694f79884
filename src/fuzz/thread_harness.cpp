#include "fuzz/thread_harness.hpp"

#include <cstring>

#include "fuzz/harness.hpp"
#include "record/replay.hpp"
#include "runtime/world.hpp"
#include "util/assert.hpp"

namespace dsmr::fuzz {

namespace {

using runtime::ThreadProcess;
using runtime::ThreadWorld;

/// Boundary-barrier tags: top byte distinct from user tags (< 2^56, see
/// kMaxSignalTag) and from pgas::Team's collective range (kinds 1..5 in the
/// top byte). Phase index and round share the low bits without collision:
/// phases < 4096 (12 bits, shifted past the round) and rounds < 10 for
/// kMaxProcs = 1024.
constexpr std::uint64_t kBoundaryTagBase = 0xB5ULL << 56;

std::uint64_t boundary_tag(std::size_t phase, std::uint32_t round) {
  return boundary_signal_tag(phase, round);
}

/// Every BoundaryKind as a full frontier: the dissemination barrier, with
/// the same sequential send-round-k / wait-round-k structure as
/// pgas::Team::barrier. The collective kinds' data movement is omitted —
/// their values never affect detection, only their edges do, and the
/// barrier produces a superset-equivalent frontier.
void run_boundary(ThreadProcess& p, const Phase& phase, std::size_t phase_index) {
  const int n = p.nprocs();
  const Rank r = p.rank();
  const bool arrive_only =
      phase.entry.kind == BoundaryKind::kBarrier && phase.skip_rank == r;
  for (std::uint32_t round = 0; (1 << round) < n; ++round) {
    const int dist = 1 << round;
    const Rank to = static_cast<Rank>((r + dist) % n);
    p.signal(to, boundary_tag(phase_index, round));
    if (!arrive_only) p.wait_signal(boundary_tag(phase_index, round));
  }
}

/// The blocking twin of program.cpp's program_task: same ops, same order,
/// same payload stamps.
void run_rank(ThreadProcess& p, const Program& program,
              const std::vector<mem::GlobalAddress>& areas) {
  const auto rank = static_cast<std::size_t>(p.rank());
  std::uint64_t stamp = (static_cast<std::uint64_t>(p.rank()) + 1) << 32;
  for (std::size_t ph = 0; ph < program.phases.size(); ++ph) {
    if (ph > 0) run_boundary(p, program.phases[ph], ph);
    for (const Op& op : program.phases[ph].ops[rank]) {
      const auto lock_area = [&op]() {
        return static_cast<std::size_t>(op.lock == -1 ? op.area : op.lock);
      };
      switch (op.kind) {
        case OpKind::kPut: {
          if (op.locked) p.lock(areas[lock_area()]);
          std::vector<std::byte> bytes(program.area_bytes, std::byte{0});
          ++stamp;
          std::memcpy(bytes.data(), &stamp, std::min(sizeof(stamp), bytes.size()));
          p.put(areas[static_cast<std::size_t>(op.area)], bytes);
          if (op.locked) p.unlock(areas[lock_area()]);
          break;
        }
        case OpKind::kGet:
          if (op.locked) p.lock(areas[lock_area()]);
          p.get(areas[static_cast<std::size_t>(op.area)], program.area_bytes);
          if (op.locked) p.unlock(areas[lock_area()]);
          break;
        case OpKind::kSignal:
          p.signal(static_cast<Rank>(op.peer), op.tag);
          break;
        case OpKind::kWait:
          p.wait_signal(op.tag);
          break;
        case OpKind::kSleep:
          p.sleep(static_cast<std::uint64_t>(op.duration));
          break;
        case OpKind::kCompute:
          p.compute(static_cast<std::uint64_t>(op.duration));
          break;
      }
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

std::uint64_t boundary_signal_tag(std::size_t phase, std::uint32_t round) {
  return kBoundaryTagBase | (static_cast<std::uint64_t>(phase) << 8) | round;
}

ProgramHandles spawn_program_threaded(ThreadWorld& world,
                                      std::shared_ptr<const Program> program) {
  DSMR_REQUIRE(program != nullptr, "spawn_program_threaded needs a program");
  std::string error;
  DSMR_REQUIRE(validate(*program, &error), "spawn of invalid program: " << error);
  DSMR_REQUIRE(world.nprocs() == program->nprocs,
               "program generated for " << program->nprocs << " ranks, world has "
                                        << world.nprocs());
  ProgramHandles handles;
  for (int a = 0; a < program->areas; ++a) {
    const Rank home = static_cast<Rank>(a % program->nprocs);
    handles.areas.push_back(
        world.alloc(home, program->area_bytes, "fz" + std::to_string(a)));
  }
  for (Rank r = 0; r < world.nprocs(); ++r) {
    world.spawn(r, [program, areas = handles.areas](ThreadProcess& p) {
      run_rank(p, *program, areas);
    });
  }
  return handles;
}

ThreadProgramOutcome run_program_threaded(const Program& program,
                                          const ThreadRunOptions& options) {
  runtime::ThreadWorldConfig config;
  config.nprocs = program.nprocs;
  config.mode = options.mode;
  config.lock_clock_handoff = options.lock_clock_handoff;
  config.acked_puts = options.acked_puts;
  config.shards = options.shards;
  config.run_timeout = options.timeout;
  // Areas are small and bump-allocated; size the segment to fit them.
  config.segment_bytes =
      std::max<std::uint32_t>(1 << 16, program.area_bytes *
                                           (static_cast<std::uint32_t>(program.areas) + 1));
  config.recorder = options.recorder;
  config.replay = options.replay;
  ThreadWorld world(config);
  spawn_program_threaded(world, std::make_shared<Program>(program));
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
  const std::string planted_area =
      program.planted ? "fz" + std::to_string(program.planted->area) : "";
  auto fail = [&result](std::string what) { result.failures.push_back(std::move(what)); };

  // --- sim oracle runs ---
  if (options.compare_sim) {
    for (std::uint64_t seed = 1; seed <= options.sim_schedule_seeds; ++seed) {
      runtime::WorldConfig config;
      config.nprocs = program.nprocs;
      config.seed = seed;
      runtime::World world(config);
      spawn_program(world, std::make_shared<Program>(program));
      const auto report = world.run();
      ++result.sim_runs;
      if (!report.completed) {
        fail("sim run (seed " + std::to_string(seed) + ") did not complete");
        continue;
      }
      std::set<std::string> racy;
      for (const auto& r : world.races().unique_by_area()) racy.insert(r.area_name);
      if (!racy.empty()) ++result.sim_manifested;
      switch (program.expect) {
        case Expectation::kClean:
          if (!racy.empty()) {
            fail("clean program raced on sim (seed " + std::to_string(seed) +
                 "): area " + *racy.begin());
          }
          break;
        case Expectation::kRacy:
          if (racy.count(planted_area) == 0) {
            fail("planted race missed on sim (seed " + std::to_string(seed) +
                 "): area " + planted_area);
          }
          break;
        case Expectation::kSometimes:
          break;  // informational.
      }
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
  if (options.record_replay) {
    ThreadRunOptions recording = options.thread;
    record::Recorder recorder(static_cast<std::uint32_t>(program.nprocs),
                              record::Backend::kThread, recording.mode,
                              recording.lock_clock_handoff, recording.acked_puts);
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
  }
  return result;
}

ThreadSweepResult run_thread_sweep(const ThreadSweepConfig& config) {
  ThreadSweepResult result;
  for (std::uint64_t i = 0; i < config.seeds.count; ++i) {
    const std::uint64_t seed = config.seeds.first + i;
    GenConfig gen = config.base;
    gen.seed = seed;
    gen.plant_bug = !config.bug_kinds.empty() &&
                    plant_for_seed(seed, config.planted_fraction);
    if (gen.plant_bug) gen.bug_kind = kind_for_seed(seed, config.bug_kinds);
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
