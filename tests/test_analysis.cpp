// Tests for the offline ground-truth analysis, accuracy metrics, and the
// §IV.C clock-truncation ablation.
#include <gtest/gtest.h>

#include "analysis/ground_truth.hpp"
#include "runtime/process.hpp"
#include "runtime/world.hpp"
#include "workload/workloads.hpp"

namespace dsmr::analysis {
namespace {

using runtime::Process;
using runtime::World;
using runtime::WorldConfig;

WorldConfig config_for(int nprocs) {
  WorldConfig config;
  config.nprocs = nprocs;
  return config;
}

TEST(GroundTruth, EmptyLogIsClean) {
  const record::Log log;
  const auto truth = compute_ground_truth(log);
  EXPECT_TRUE(truth.pairs.empty());
  EXPECT_EQ(truth.conflicting_pairs, 0u);
}

TEST(GroundTruth, DetectsTheFig5aPair) {
  World world(config_for(3));
  world.record();
  const auto x = world.alloc(1, 8, "x");
  world.spawn(0, [x](Process& p) -> sim::Task {
    co_await p.put_value(x, std::uint64_t{1});
  });
  world.spawn(2, [x](Process& p) -> sim::Task {
    co_await p.sleep(20'000);
    co_await p.put_value(x, std::uint64_t{2});
  });
  EXPECT_TRUE(world.run().completed);
  const auto truth = compute_ground_truth(world.log());
  EXPECT_EQ(truth.pairs.size(), 1u);
  EXPECT_EQ(truth.racy_areas.size(), 1u);
  EXPECT_EQ(truth.conflicting_pairs, 1u);
  EXPECT_EQ(truth.ordered_pairs, 0u);
}

TEST(GroundTruth, OrderedChainHasNoPairs) {
  World world(config_for(3));
  world.record();
  const auto x = world.alloc(1, 8, "x");
  world.spawn(0, [x](Process& p) -> sim::Task {
    co_await p.put_value(x, std::uint64_t{1});
    p.signal(2, 1);
  });
  world.spawn(2, [x](Process& p) -> sim::Task {
    co_await p.wait_signal(1);
    co_await p.put_value(x, std::uint64_t{2});
  });
  EXPECT_TRUE(world.run().completed);
  const auto truth = compute_ground_truth(world.log());
  EXPECT_TRUE(truth.pairs.empty());
  EXPECT_EQ(truth.ordered_pairs, 1u);
}

TEST(GroundTruth, SameRankPairsAreExempt) {
  WorldConfig config = config_for(2);
  config.acked_puts = false;
  World world(config);
  world.record();
  const auto x = world.alloc(1, 8, "x");
  world.spawn(0, [x](Process& p) -> sim::Task {
    for (std::uint64_t i = 0; i < 4; ++i) co_await p.put_value(x, i);
  });
  EXPECT_TRUE(world.run().completed);
  const auto truth = compute_ground_truth(world.log());
  EXPECT_TRUE(truth.pairs.empty());
  EXPECT_EQ(truth.conflicting_pairs, 0u);  // same-rank pairs not examined.
}

TEST(GroundTruth, SeesRacesTheOnlineDetectorMisses) {
  // Three concurrent writers: online reports compare only against the
  // latest access, so at most 2 reports; ground truth sees all 3 pairs.
  World world(config_for(4));
  world.record();
  const auto x = world.alloc(0, 8, "x");
  for (Rank r = 1; r < 4; ++r) {
    world.spawn(r, [x, r](Process& p) -> sim::Task {
      co_await p.sleep(static_cast<sim::Time>(r) * 15'000);
      co_await p.put_value(x, static_cast<std::uint64_t>(r));
    });
  }
  EXPECT_TRUE(world.run().completed);
  const auto truth = compute_ground_truth(world.log());
  EXPECT_EQ(truth.pairs.size(), 3u);  // {1,2} {1,3} {2,3}
  EXPECT_LE(world.races().count(), 2u);
  const auto acc = evaluate(world.log(), world.races());
  EXPECT_DOUBLE_EQ(acc.precision(), 1.0);
  EXPECT_LT(acc.pair_recall(), 1.0);
  EXPECT_DOUBLE_EQ(acc.area_recall(), 1.0);  // the datum itself was flagged.
}

TEST(Accuracy, CleanRunScoresPerfect) {
  World world(config_for(3));
  world.record();
  workload::StencilConfig config;
  config.cells_per_rank = 4;
  config.iters = 3;
  workload::spawn_stencil(world, config);
  EXPECT_TRUE(world.run().completed);
  const auto acc = evaluate(world.log(), world.races());
  EXPECT_EQ(acc.truth_pairs, 0u);
  EXPECT_EQ(acc.reported_pairs, 0u);
  EXPECT_DOUBLE_EQ(acc.precision(), 1.0);
  EXPECT_DOUBLE_EQ(acc.pair_recall(), 1.0);
}

TEST(Accuracy, OnlineReportsAreAlwaysTruePositives) {
  // The structural precision guarantee on a messy workload.
  World world(config_for(4));
  world.record();
  workload::RandomConfig config;
  config.areas = 3;
  config.ops_per_proc = 30;
  config.write_fraction = 0.7;
  workload::spawn_random(world, config);
  EXPECT_TRUE(world.run().completed);
  const auto acc = evaluate(world.log(), world.races());
  EXPECT_GT(acc.reported_pairs, 0u);
  EXPECT_DOUBLE_EQ(acc.precision(), 1.0);
}

TEST(Accuracy, SingleClockModeHasFalsePositives) {
  // §IV.D quantified: read-read concurrency is reported by the single-clock
  // detector but is not a true race.
  WorldConfig config = config_for(4);
  config.mode = core::DetectorMode::kSingleClock;
  World world(config);
  world.record();
  workload::RandomConfig wl;
  wl.areas = 3;
  wl.ops_per_proc = 30;
  wl.write_fraction = 0.1;  // read-heavy: many read-read "races".
  workload::spawn_random(world, wl);
  EXPECT_TRUE(world.run().completed);
  const auto acc = evaluate(world.log(), world.races());
  EXPECT_GT(acc.reported_pairs, 0u);
  EXPECT_LT(acc.precision(), 1.0);
}

TEST(Truncation, FullWidthSeesEverythingAndZeroWidthlessMisses) {
  World world(config_for(4));
  world.record();
  workload::RandomConfig wl;
  wl.areas = 3;
  wl.ops_per_proc = 25;
  wl.write_fraction = 0.6;
  workload::spawn_random(world, wl);
  EXPECT_TRUE(world.run().completed);
  const auto truth = compute_ground_truth(world.log());
  ASSERT_GT(truth.pairs.size(), 0u);

  const auto sweep = truncation_sweep(world.log(), 4);
  ASSERT_EQ(sweep.size(), 4u);
  // §IV.C: at full width n every race is detected...
  EXPECT_EQ(sweep.back().detected, truth.pairs.size());
  EXPECT_EQ(sweep.back().missed, 0u);
  // ...and the missed count is monotonically non-increasing in k.
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_LE(sweep[i].missed, sweep[i - 1].missed);
    EXPECT_EQ(sweep[i].detected + sweep[i].missed, truth.pairs.size());
  }
}

TEST(Truncation, NarrowClocksMissRacesOnRealWorkloads) {
  // The existence proof for the §IV.C lower bound: some seed exhibits
  // misses at width < n. (Guaranteed-miss constructions live in
  // test_clocks.cpp; here we check the measurement plumbing end to end.)
  std::uint64_t total_missed_at_1 = 0;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    WorldConfig config = config_for(4);
    config.seed = seed;
    World world(config);
    world.record();
    workload::RandomConfig wl;
    wl.areas = 2;
    wl.ops_per_proc = 30;
    wl.write_fraction = 0.8;
    wl.seed = seed;
    workload::spawn_random(world, wl);
    EXPECT_TRUE(world.run().completed);
    const auto sweep = truncation_sweep(world.log(), 4);
    total_missed_at_1 += sweep.front().missed;
  }
  EXPECT_GT(total_missed_at_1, 0u);
}

TEST(Truncation, HomeOnLastRankHidesARaceBelowFullWidth) {
  // §IV.C at program level: "the size of the vector clocks must be at
  // least n". The area lives on rank n-1 and puts are unacked, so rank 0
  // never learns the home's clock. Rank 0 puts, then signals rank 1, which
  // puts: rank 1 knows everything rank 0 did, but not the home's apply of
  // the first put, which it lacks only in component n-1. Truncation keeps
  // the first k components, so every width k < n orders the two puts.
  // (At n = 2 the second writer is the home itself: no race.)
  for (const int n : {3, 4, 8, 16}) {
    WorldConfig config = config_for(n);
    config.acked_puts = false;
    World world(config);
    world.record();
    const auto x = world.alloc(static_cast<Rank>(n - 1), 8, "x");
    world.spawn(0, [x](Process& p) -> sim::Task {
      co_await p.put_value(x, std::uint64_t{1});
      p.signal(1, 1);
    });
    world.spawn(1, [x](Process& p) -> sim::Task {
      co_await p.wait_signal(1);
      co_await p.put_value(x, std::uint64_t{2});
    });
    ASSERT_TRUE(world.run().completed) << n;
    EXPECT_EQ(compute_ground_truth(world.log()).pairs.size(), 1u) << n;
    EXPECT_EQ(world.races().count(), 1u) << n;  // the live detector sees it.

    const auto sweep = truncation_sweep(world.log(), static_cast<std::size_t>(n));
    ASSERT_EQ(sweep.size(), static_cast<std::size_t>(n));
    for (std::size_t k = 1; k < sweep.size(); ++k) {
      EXPECT_EQ(sweep[k - 1].detected, 0u) << "n=" << n << " k=" << k;
      EXPECT_EQ(sweep[k - 1].missed, 1u) << "n=" << n << " k=" << k;
    }
    EXPECT_EQ(sweep.back().detected, 1u) << n;
    EXPECT_EQ(sweep.back().missed, 0u) << n;
  }
}

}  // namespace
}  // namespace dsmr::analysis
