// sim_sweep: the simulator oracle — the sim engine, the NIC protocol, the
// sim fabric and the detector at one shard — over a fixed rotation of
// scenarios and transports, one runtime::World per scenario instance.
#include <cstring>
#include <optional>

#include "runtime/world.hpp"
#include "workload/workloads.hpp"
#include "workloads.hpp"

namespace dsmr::bench {
namespace {

constexpr int kSimRanks = 8;

enum Scenario : int { kRandom, kStencil, kHistLocked, kHistUnlocked, kPipeline, kMasterWorker };
constexpr int kScenarios = 6;
constexpr const char* kScenarioNames[kScenarios] = {
    "random", "stencil", "histogram-locked", "histogram-unlocked", "pipeline", "master-worker"};
constexpr core::Transport kTransports[] = {core::Transport::kHomeSide, core::Transport::kSeparate,
                                           core::Transport::kPiggyback};

/// The scenarios whose every run must race (the rest must never race).
bool racy(Scenario s) { return s == kRandom || s == kHistUnlocked || s == kMasterWorker; }

workload::StencilConfig stencil_config() {
  workload::StencilConfig config;
  config.cells_per_rank = 32;
  config.iters = 8;
  return config;
}

struct WorldOutcome {
  double setup_ns = 0;
  double run_ns = 0;
  double events = 0;
  double races = 0;
  double data_path_messages = 0;
};

WorldOutcome run_world(Run& run, std::uint64_t index, core::DetectorMode mode, Tracer* tracer,
                       std::uint64_t parent) {
  const auto scenario = static_cast<Scenario>(index % kScenarios);
  const core::Transport transport = kTransports[(index / kScenarios) % 3];
  const std::uint64_t seed = derive_seed(run.seed, 1000 + index);

  ScopedSpan world_span(tracer, 0, "sim.world", parent, index);
  std::optional<ScopedSpan> setup(std::in_place, tracer, 0, "sim.setup", world_span.id(), index);
  runtime::WorldConfig config;
  config.nprocs = kSimRanks;
  config.seed = seed;
  config.mode = mode;
  config.transport = transport;
  runtime::World world(config);

  workload::StencilHandles stencil;
  std::optional<workload::HistogramHandles> histogram;
  workload::HistogramConfig histogram_config;
  histogram_config.bins = 16;
  histogram_config.increments_per_rank = 32;
  histogram_config.seed = seed;
  workload::PipelineHandles pipeline;
  workload::PipelineConfig pipeline_config;
  pipeline_config.tokens = 16;
  switch (scenario) {
    case kRandom: {
      workload::RandomConfig random;
      random.areas = 32;
      random.ops_per_proc = 200;
      random.barrier_every = 20;
      random.lock_fraction = 0.1;
      random.seed = seed;
      workload::spawn_random(world, random);
      break;
    }
    case kStencil:
      stencil = workload::spawn_stencil(world, stencil_config());
      break;
    case kHistLocked:
    case kHistUnlocked:
      histogram_config.locked = scenario == kHistLocked;
      histogram.emplace(workload::spawn_histogram(world, histogram_config));
      break;
    case kPipeline:
      pipeline = workload::spawn_pipeline(world, pipeline_config);
      break;
    case kMasterWorker: {
      workload::MasterWorkerConfig master;
      master.tasks_per_worker = 4;
      master.seed = seed;
      workload::spawn_master_worker(world, master);
      break;
    }
  }
  WorldOutcome out;
  out.setup_ns = static_cast<double>(setup->elapsed_ns());
  setup.reset();

  runtime::RunReport report;
  {
    ScopedSpan span(tracer, 0, "sim.run", world_span.id(), index);
    report = world.run();
    out.run_ns = static_cast<double>(span.elapsed_ns());
  }
  out.events = static_cast<double>(report.engine_events);
  out.races = static_cast<double>(report.race_count);
  out.data_path_messages = static_cast<double>(world.traffic().data_path_messages);

  const std::string where = std::string("sim_sweep: world ") + std::to_string(index) + " (" +
                            kScenarioNames[scenario] + ", " + core::to_string(transport) + ", " +
                            core::to_string(mode) + ")";
  run.check(report.completed, where + " did not complete: " + report.diagnostic);
  if (scenario == kStencil) {
    const std::vector<double> expected = workload::stencil_reference(kSimRanks, stencil_config());
    bool same = true;
    for (int r = 0; r < kSimRanks; ++r) {
      const mem::GlobalAddress addr = stencil.results[static_cast<std::size_t>(r)];
      const std::size_t cells = static_cast<std::size_t>(stencil.cells_per_rank);
      std::vector<double> got(cells);
      std::memcpy(got.data(),
                  world.segment(addr.rank)
                      .bytes(addr.offset, static_cast<std::uint32_t>(cells * sizeof(double)))
                      .data(),
                  cells * sizeof(double));
      for (std::size_t i = 0; i < cells; ++i) same = same && got[i] == expected[r * cells + i];
    }
    run.check(same, where + ": cells differ from stencil_reference");
  }
  if (scenario == kHistLocked) {
    const std::uint64_t total = workload::histogram_total(world, *histogram);
    run.check(total == static_cast<std::uint64_t>(kSimRanks * histogram_config.increments_per_rank),
              where + ": locked histogram lost updates (" + std::to_string(total) + ")");
  }
  if (scenario == kPipeline) {
    std::uint64_t sink = 0;
    std::memcpy(&sink, world.segment(pipeline.sink.rank).bytes(pipeline.sink.offset, 8).data(), 8);
    run.check(sink == workload::pipeline_expected(kSimRanks, pipeline_config),
              where + ": pipeline sink " + std::to_string(sink));
  }
  if (mode == core::DetectorMode::kDualClock) {
    run.check(racy(scenario) ? report.race_count >= 1 : report.race_count == 0,
              where + ": " + std::to_string(report.race_count) + " race(s)");
  }
  return out;
}

Rep sim_rep(Run& run, std::uint64_t worlds, core::DetectorMode mode, bool traced,
            std::uint64_t req, std::vector<WorldOutcome>* outcomes) {
  Tracer* const tracer = traced ? run.tracer : nullptr;
  ScopedSpan rep_span(tracer, 0, "bench.rep", 0, req);
  Rep rep;
  for (std::uint64_t i = 0; i < worlds; ++i) {
    const WorldOutcome out = run_world(run, i, mode, tracer, rep_span.id());
    rep.setup_s += out.setup_ns / 1e9;
    rep.wall_s += out.run_ns / 1e9;
    if (outcomes != nullptr) outcomes->push_back(out);
  }
  rep.work = static_cast<double>(worlds);
  return rep;
}

}  // namespace

void sim_sweep(Run& run) {
  const std::uint64_t worlds = run.size("worlds_per_rep", 360, 18);
  run.size("ranks", kSimRanks, kSimRanks);
  run.size("scenarios", kScenarios, kScenarios);
  run.size("transports", 3, 3);
  std::uint64_t req = 0;

  if (!run.traced()) {
    // 0: dual-clock, 1: detector off. Same worlds, same seeds.
    const auto reps = alternate(run, 2, [&](int config, bool) {
      const auto mode = config == 0 ? core::DetectorMode::kDualClock : core::DetectorMode::kOff;
      return sim_rep(run, worlds, mode, false, req++, nullptr);
    });
    run.set("throughput", median_rate(reps[0]));
    run.set("slowdown", paired_ratio(reps[0], reps[1]));
    run.set("setup_s", median_setup(reps[0]));
    return;
  }

  std::vector<WorldOutcome> outcomes;
  const auto reps = alternate(run, 2, [&](int config, bool timed) {
    const bool traced = config == 0 && timed;
    return sim_rep(run, worlds, core::DetectorMode::kDualClock, traced, req++,
                   traced ? &outcomes : nullptr);
  });
  run.set("trace.overhead_frac", paired_ratio(reps[0], reps[1]) - 1.0);
  std::vector<double> setup_us, run_ms;
  double run_ns = 0, events = 0, races = 0, data_path = 0;
  for (const WorldOutcome& out : outcomes) {
    setup_us.push_back(out.setup_ns / 1e3);
    run_ms.push_back(out.run_ns / 1e6);
    run_ns += out.run_ns;
    events += out.events;
    races += out.races;
    data_path += out.data_path_messages;
  }
  const auto n = static_cast<double>(outcomes.size());
  run.set("sim.setup_us_p50", median(setup_us));
  run.set("sim.run_ms_p50", median(run_ms));
  run.set("sim.run_ms_p99", quantile(run_ms, 0.99));
  run.set("sim.ns_per_event", run_ns / events);
  run.set("sim.events_per_world", events / n);
  run.set("sim.races_per_world", races / n);
  run.set("nic.data_path_messages_per_world", data_path / n);
  run_probes(run, private_probe_stream(run));
}

}  // namespace dsmr::bench
