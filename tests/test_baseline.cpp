// Tests for the Eraser-style lockset baseline and its comparison against
// the paper's clock-based detector.
#include <gtest/gtest.h>

#include "analysis/ground_truth.hpp"
#include "baseline/lockset.hpp"
#include "runtime/process.hpp"
#include "runtime/world.hpp"
#include "workload/workloads.hpp"

namespace dsmr::baseline {
namespace {

using runtime::Process;
using runtime::World;
using runtime::WorldConfig;

WorldConfig config_for(int nprocs) {
  WorldConfig config;
  config.nprocs = nprocs;
  return config;
}

TEST(Lockset, SingleThreadedAreaIsNeverFlagged) {
  World world(config_for(2));
  world.record();
  const auto x = world.alloc(1, 8, "x");
  world.spawn(0, [x](Process& p) -> sim::Task {
    for (std::uint64_t i = 0; i < 5; ++i) {
      co_await p.put_value(x, i);
      co_await p.get(x, 8);
    }
  });
  EXPECT_TRUE(world.run().completed);
  const auto result = LocksetDetector::analyze(world.log());
  EXPECT_TRUE(result.warnings.empty());
}

TEST(Lockset, ConsistentLockingIsClean) {
  World world(config_for(3));
  world.record();
  const auto counter = world.alloc(0, 8, "counter");
  auto incrementer = [counter](Process& p) -> sim::Task {
    for (int i = 0; i < 5; ++i) {
      co_await p.lock(counter);
      const auto v = co_await p.get_value<std::uint64_t>(counter);
      co_await p.put_value(counter, v + 1);
      co_await p.unlock(counter);
    }
  };
  world.spawn(1, incrementer);
  world.spawn(2, incrementer);
  EXPECT_TRUE(world.run().completed);
  const auto result = LocksetDetector::analyze(world.log());
  EXPECT_TRUE(result.warnings.empty());
}

TEST(Lockset, UnlockedSharedWritesAreFlagged) {
  World world(config_for(3));
  world.record();
  const auto x = world.alloc(0, 8, "x");
  world.spawn(1, [x](Process& p) -> sim::Task {
    co_await p.put_value(x, std::uint64_t{1});
  });
  world.spawn(2, [x](Process& p) -> sim::Task {
    co_await p.sleep(20'000);
    co_await p.put_value(x, std::uint64_t{2});
  });
  EXPECT_TRUE(world.run().completed);
  const auto result = LocksetDetector::analyze(world.log());
  ASSERT_EQ(result.warnings.size(), 1u);
  EXPECT_EQ(result.warnings.front().area, (analysis::AreaKey{0, 0}));
}

TEST(Lockset, InconsistentLocksetsAreFlagged) {
  // Each rank consistently holds *a* lock — but not the same one.
  World world(config_for(3));
  world.record();
  const auto x = world.alloc(0, 8, "x");
  const auto la = world.alloc(1, 8, "lock_a");
  const auto lb = world.alloc(2, 8, "lock_b");
  world.spawn(1, [x, la](Process& p) -> sim::Task {
    co_await p.lock(la);
    co_await p.put_value(x, std::uint64_t{1});
    co_await p.unlock(la);
  });
  world.spawn(2, [x, lb](Process& p) -> sim::Task {
    co_await p.sleep(30'000);
    co_await p.lock(lb);
    co_await p.put_value(x, std::uint64_t{2});
    co_await p.unlock(lb);
  });
  EXPECT_TRUE(world.run().completed);
  const auto result = LocksetDetector::analyze(world.log());
  EXPECT_EQ(result.warnings.size(), 1u);
}

TEST(Lockset, FalsePositiveOnMessageSynchronizedProgram) {
  // The classic lockset blind spot: ordering via messages, not locks. The
  // program is race-free (the clock detector and ground truth agree), but
  // lockset flags it — the comparison the paper's related work implies.
  World world(config_for(3));
  world.record();
  const auto x = world.alloc(1, 8, "x");
  world.spawn(0, [x](Process& p) -> sim::Task {
    co_await p.put_value(x, std::uint64_t{1});
    p.signal(2, 9);
  });
  world.spawn(2, [x](Process& p) -> sim::Task {
    co_await p.wait_signal(9);
    co_await p.put_value(x, std::uint64_t{2});
  });
  EXPECT_TRUE(world.run().completed);

  // Clock detector: clean. Ground truth: clean.
  EXPECT_EQ(world.races().count(), 0u);
  EXPECT_TRUE(analysis::compute_ground_truth(world.log()).pairs.empty());
  // Lockset: false positive.
  const auto result = LocksetDetector::analyze(world.log());
  EXPECT_EQ(result.warnings.size(), 1u);
}

TEST(Lockset, SharedReadOnlyAreaIsClean) {
  World world(config_for(3));
  world.record();
  const auto x = world.alloc(0, 8, "x");
  world.spawn(1, [x](Process& p) -> sim::Task { co_await p.get(x, 8); });
  world.spawn(2, [x](Process& p) -> sim::Task { co_await p.get(x, 8); });
  EXPECT_TRUE(world.run().completed);
  const auto result = LocksetDetector::analyze(world.log());
  EXPECT_TRUE(result.warnings.empty());
}

TEST(Lockset, WarnsOncePerArea) {
  World world(config_for(3));
  world.record();
  const auto x = world.alloc(0, 8, "x");
  auto hammer = [x](Process& p) -> sim::Task {
    for (std::uint64_t i = 0; i < 10; ++i) co_await p.put_value(x, i);
  };
  world.spawn(1, hammer);
  world.spawn(2, hammer);
  EXPECT_TRUE(world.run().completed);
  const auto result = LocksetDetector::analyze(world.log());
  EXPECT_EQ(result.warnings.size(), 1u);
}

TEST(Lockset, MasterWorkerPatternIsFlaggedLikeTheClockDetector) {
  World world(config_for(4));
  world.record();
  workload::spawn_master_worker(world, workload::MasterWorkerConfig{});
  EXPECT_TRUE(world.run().completed);
  const auto result = LocksetDetector::analyze(world.log());
  EXPECT_GE(result.warnings.size(), 1u);
  EXPECT_GE(world.races().count(), 1u);
}

TEST(Lockset, LockedHistogramCleanUnlockedFlagged) {
  for (const bool locked : {true, false}) {
    World world(config_for(3));
    world.record();
    workload::HistogramConfig config;
    config.bins = 4;
    config.increments_per_rank = 15;
    config.locked = locked;
    workload::spawn_histogram(world, config);
    EXPECT_TRUE(world.run().completed);
    const auto result = LocksetDetector::analyze(world.log());
    if (locked) {
      EXPECT_TRUE(result.warnings.empty());
    } else {
      EXPECT_GE(result.warnings.size(), 1u);
    }
  }
}

}  // namespace
}  // namespace dsmr::baseline
