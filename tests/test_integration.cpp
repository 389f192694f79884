// Cross-module integration: full workloads through the full stack, with the
// clock detector, ground truth and the lockset baseline compared side by
// side — the qualitative table bench/bench_precision.cpp prints.
#include <gtest/gtest.h>

#include "analysis/ground_truth.hpp"
#include "baseline/lockset.hpp"
#include "pgas/collectives.hpp"
#include "runtime/process.hpp"
#include "runtime/world.hpp"
#include "workload/workloads.hpp"

namespace dsmr {
namespace {

using runtime::Process;
using runtime::World;
using runtime::WorldConfig;

WorldConfig config_for(int nprocs, std::uint64_t seed = 5) {
  WorldConfig config;
  config.nprocs = nprocs;
  config.seed = seed;
  return config;
}

TEST(Integration, DetectorComparisonMatrix) {
  // One row per workload; the qualitative verdicts every detector family
  // must produce. (The quantitative version is bench_precision.)
  struct Row {
    const char* name;
    bool truly_racy;       // ground truth.
    bool clock_flags;      // paper's detector (dual clock).
    bool lockset_flags;    // Eraser baseline.
  };

  auto run_stencil = [](bool buggy) {
    World world(config_for(4));
    workload::StencilConfig config;
    config.cells_per_rank = 6;
    config.iters = 3;
    config.buggy = buggy;
    workload::spawn_stencil(world, config);
    EXPECT_TRUE(world.run().completed);
    return std::tuple{!analysis::compute_ground_truth(world.events()).pairs.empty(),
                      world.races().count() > 0,
                      !baseline::LocksetDetector::analyze(world.events()).warnings.empty()};
  };

  // Correct stencil: everyone clean... except lockset, which flags
  // barrier-synchronized sharing (its classic blind spot).
  {
    const auto [truth, clock, lockset] = run_stencil(false);
    EXPECT_FALSE(truth);
    EXPECT_FALSE(clock);
    EXPECT_TRUE(lockset);  // message/barrier sync is invisible to lockset.
  }
  // Buggy stencil: everyone flags.
  {
    const auto [truth, clock, lockset] = run_stencil(true);
    EXPECT_TRUE(truth);
    EXPECT_TRUE(clock);
    EXPECT_TRUE(lockset);
  }
  // Locked histogram: clean everywhere.
  {
    World world(config_for(4));
    workload::HistogramConfig config;
    config.bins = 4;
    config.increments_per_rank = 20;
    config.locked = true;
    workload::spawn_histogram(world, config);
    EXPECT_TRUE(world.run().completed);
    EXPECT_TRUE(analysis::compute_ground_truth(world.events()).pairs.empty());
    EXPECT_EQ(world.races().count(), 0u);
    EXPECT_TRUE(baseline::LocksetDetector::analyze(world.events()).warnings.empty());
  }
  // Unlocked histogram: flagged everywhere.
  {
    World world(config_for(4));
    workload::HistogramConfig config;
    config.bins = 4;
    config.increments_per_rank = 20;
    config.locked = false;
    workload::spawn_histogram(world, config);
    EXPECT_TRUE(world.run().completed);
    EXPECT_FALSE(analysis::compute_ground_truth(world.events()).pairs.empty());
    EXPECT_GT(world.races().count(), 0u);
    EXPECT_FALSE(baseline::LocksetDetector::analyze(world.events()).warnings.empty());
  }
  // Pipeline with backpressure: message-ordered — clock detector and truth
  // clean; lockset false-positives.
  {
    World world(config_for(4));
    workload::PipelineConfig config;
    config.tokens = 5;
    workload::spawn_pipeline(world, config);
    EXPECT_TRUE(world.run().completed);
    EXPECT_TRUE(analysis::compute_ground_truth(world.events()).pairs.empty());
    EXPECT_EQ(world.races().count(), 0u);
    EXPECT_FALSE(baseline::LocksetDetector::analyze(world.events()).warnings.empty());
  }
}

TEST(Integration, DebuggingScaleTenProcesses) {
  // §V.A: "Parallel programmes are typically debugged on small data sets
  // and a few processes (typically, about 10 processes)." The full stack
  // must handle that scale comfortably with detection enabled.
  World world(config_for(10));
  workload::RandomConfig wl;
  wl.areas = 10;
  wl.ops_per_proc = 50;
  wl.write_fraction = 0.5;
  wl.barrier_every = 10;
  workload::spawn_random(world, wl);
  const auto report = world.run();
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(world.events().size(), 500u);
  const auto acc = analysis::evaluate(world.events(), world.races());
  EXPECT_DOUBLE_EQ(acc.precision(), 1.0);
}

TEST(Integration, MixedWorkloadAcrossTransportsFlagsTheSameAreas) {
  // Transport layouts change timing, but the *areas* diagnosed racy should
  // be stable for a workload whose races are structural (buggy stencil).
  std::set<std::string> flagged_by_transport[3];
  const core::Transport transports[] = {core::Transport::kSeparate,
                                        core::Transport::kPiggyback,
                                        core::Transport::kHomeSide};
  for (int t = 0; t < 3; ++t) {
    WorldConfig config = config_for(4);
    config.transport = transports[t];
    World world(config);
    workload::StencilConfig wl;
    wl.cells_per_rank = 6;
    wl.iters = 4;
    wl.buggy = true;
    workload::spawn_stencil(world, wl);
    EXPECT_TRUE(world.run().completed);
    for (const auto& r : world.races().reports()) {
      flagged_by_transport[t].insert(r.area_name);
    }
    EXPECT_FALSE(flagged_by_transport[t].empty());
  }
  // Every transport flags at least one halo; all flagged areas are halos.
  for (int t = 0; t < 3; ++t) {
    for (const auto& name : flagged_by_transport[t]) {
      EXPECT_EQ(name.rfind("halo", 0), 0u) << name;
    }
  }
}

TEST(Integration, MasterWorkerEndToEndWithAccuracy) {
  World world(config_for(5));
  workload::MasterWorkerConfig config;
  config.tasks_per_worker = 3;
  workload::spawn_master_worker(world, config);
  EXPECT_TRUE(world.run().completed);

  const auto truth = analysis::compute_ground_truth(world.events());
  EXPECT_FALSE(truth.pairs.empty());  // the benign races are real races.
  const auto acc = analysis::evaluate(world.events(), world.races());
  EXPECT_DOUBLE_EQ(acc.precision(), 1.0);
  EXPECT_DOUBLE_EQ(acc.area_recall(), 1.0);
}

TEST(Integration, HeavyContentionStressCompletesOnEveryTransport) {
  // 8 ranks hammering two areas; exercises lock queues, piggyback grants
  // and FIFO commitments without deadlock on any transport.
  for (const auto transport : {core::Transport::kSeparate, core::Transport::kPiggyback,
                               core::Transport::kHomeSide}) {
    WorldConfig config = config_for(8, 77);
    config.transport = transport;
    World world(config);
    workload::RandomConfig wl;
    wl.areas = 2;
    wl.ops_per_proc = 40;
    wl.write_fraction = 0.7;
    wl.lock_fraction = 0.5;
    workload::spawn_random(world, wl);
    const auto report = world.run();
    EXPECT_TRUE(report.completed) << core::to_string(transport);
  }
}

TEST(Integration, JitterSweepNeverBreaksInvariants) {
  // Failure injection: crank fabric jitter to reorder everything possible;
  // precision must survive arbitrary schedules.
  for (const sim::Time jitter : {0u, 500u, 5'000u, 50'000u}) {
    WorldConfig config = config_for(5, jitter + 13);
    config.latency.jitter_ns = jitter;
    World world(config);
    workload::RandomConfig wl;
    wl.areas = 3;
    wl.ops_per_proc = 30;
    wl.write_fraction = 0.6;
    workload::spawn_random(world, wl);
    ASSERT_TRUE(world.run().completed) << "jitter " << jitter;
    const auto acc = analysis::evaluate(world.events(), world.races());
    EXPECT_DOUBLE_EQ(acc.precision(), 1.0) << "jitter " << jitter;
  }
}

TEST(Integration, BarrierThenOneSidedReduceIsRaceFree) {
  // The §V.B one-sided reduction is race-free when the programmer orders it
  // with a barrier — the recommended usage the future-work section implies.
  World world(config_for(4));
  std::vector<mem::GlobalAddress> cells;
  for (Rank r = 0; r < 4; ++r) cells.push_back(world.alloc(r, 8, "cell"));
  std::uint64_t sum = 0;
  for (Rank r = 0; r < 4; ++r) {
    world.spawn(r, [cells, r, &sum](Process& p) -> sim::Task {
      pgas::Team team(p);
      co_await p.put_value(cells[static_cast<std::size_t>(r)],
                           static_cast<std::uint64_t>(r + 1));
      co_await team.barrier();
      if (p.rank() == 0) {
        sum = co_await pgas::onesided_reduce(
            p, cells, std::uint64_t{0},
            [](std::uint64_t a, std::uint64_t b) { return a + b; });
      }
    });
  }
  EXPECT_TRUE(world.run().completed);
  EXPECT_EQ(sum, 10u);
  EXPECT_EQ(world.races().count(), 0u);
}

TEST(Integration, UnsynchronizedOneSidedReduceIsFlagged) {
  // Without the barrier the reduction's gets race with the publishes —
  // exactly the hazard §V.B's "new operations" bring along.
  World world(config_for(4));
  std::vector<mem::GlobalAddress> cells;
  for (Rank r = 0; r < 4; ++r) cells.push_back(world.alloc(r, 8, "cell"));
  for (Rank r = 0; r < 4; ++r) {
    world.spawn(r, [cells, r](Process& p) -> sim::Task {
      if (p.rank() == 0) {
        co_await p.put_value(cells[0], std::uint64_t{1});
        co_await p.sleep(100'000);  // "probably done" — not synchronization.
        co_await pgas::onesided_reduce(
            p, cells, std::uint64_t{0},
            [](std::uint64_t a, std::uint64_t b) { return a + b; });
      } else {
        co_await p.sleep(1'000);
        co_await p.put_value(cells[static_cast<std::size_t>(r)],
                             static_cast<std::uint64_t>(r + 1));
      }
    });
  }
  EXPECT_TRUE(world.run().completed);
  EXPECT_GE(world.races().count(), 1u);
}

}  // namespace
}  // namespace dsmr
