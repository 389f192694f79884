// Randomized property sweeps over seeds, process counts, transports and
// detector modes — the invariants that must hold on *every* execution:
//
//  P1  Precision: every online report of the dual-clock detector is a true
//      race by the offline ground truth.
//  P2  Dual-clock reports ⊆ single-clock reports on the same execution
//      (replayed offline so the execution is literally identical).
//  P3  Read-only workloads never race under the dual-clock detector (§IV.D),
//      while the single-clock replay flags them.
//  P4  Fully locked workloads are clean (handoff) and lose no updates.
//  P5  Clock truncation (§IV.C) only loses races, monotonically in k, and
//      width n recovers everything.
//  P6  Determinism: identical configuration ⇒ identical race reports.
//  P7  The offline replay of the run's own mode reproduces the live report
//      pair set exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analysis/ground_truth.hpp"
#include "runtime/world.hpp"
#include "workload/workloads.hpp"

namespace dsmr {
namespace {

using analysis::RacePair;
using core::DetectorMode;
using core::Transport;
using runtime::World;
using runtime::WorldConfig;

struct SweepParam {
  std::uint64_t seed;
  int nprocs;
  Transport transport;
};

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string t;
  switch (info.param.transport) {
    case Transport::kSeparate: t = "Sep"; break;
    case Transport::kPiggyback: t = "Pig"; break;
    case Transport::kHomeSide: t = "Home"; break;
  }
  return "s" + std::to_string(info.param.seed) + "n" + std::to_string(info.param.nprocs) +
         t;
}

class PropertySweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  WorldConfig world_config(DetectorMode mode = DetectorMode::kDualClock) const {
    WorldConfig config;
    config.nprocs = GetParam().nprocs;
    config.seed = GetParam().seed;
    config.transport = GetParam().transport;
    config.mode = mode;
    return config;
  }

  workload::RandomConfig contended_workload() const {
    workload::RandomConfig wl;
    wl.areas = std::max(2, GetParam().nprocs / 2);
    wl.ops_per_proc = 25;
    wl.write_fraction = 0.6;
    wl.seed = GetParam().seed * 31 + 7;
    return wl;
  }

  std::set<RacePair> live_pairs(const core::RaceLog& races) const {
    std::set<RacePair> pairs;
    for (const auto& r : races.reports()) {
      if (r.prior_event_id == 0 || r.event_id == 0) continue;
      pairs.insert({std::min(r.prior_event_id, r.event_id),
                    std::max(r.prior_event_id, r.event_id)});
    }
    return pairs;
  }
};

TEST_P(PropertySweep, P1_OnlineReportsAreAlwaysTrueRaces) {
  World world(world_config());
  workload::spawn_random(world, contended_workload());
  ASSERT_TRUE(world.run().completed);
  const auto acc = analysis::evaluate(world.events(), world.races());
  EXPECT_DOUBLE_EQ(acc.precision(), 1.0)
      << acc.true_reports << "/" << acc.reported_pairs << " reports true";
}

TEST_P(PropertySweep, P2_WriteVerdictsIdenticalAcrossModes) {
  // On writes both modes compare against V(x): identical verdicts. (On
  // reads they genuinely differ in BOTH directions: single-clock adds
  // read-read false positives, §IV.D, but can also MISS true read-write
  // races — V may absorb knowledge through the home node that W never saw,
  // ordering the read against V while it stays concurrent with the last
  // write. bench/bench_precision.cpp quantifies both.)
  World world(world_config());
  workload::spawn_random(world, contended_workload());
  ASSERT_TRUE(world.run().completed);
  const auto dual = analysis::replay_online(world.events(), DetectorMode::kDualClock);
  const auto single = analysis::replay_online(world.events(), DetectorMode::kSingleClock);
  auto writes_only = [&](const std::set<std::uint64_t>& flagged) {
    std::set<std::uint64_t> writes;
    for (const auto id : flagged) {
      if (world.events().event(id).kind == core::AccessKind::kWrite) writes.insert(id);
    }
    return writes;
  };
  EXPECT_EQ(writes_only(dual.flagged_events), writes_only(single.flagged_events));
  // And every dual-flagged read is a true race (precision on reads too).
  const auto truth = analysis::compute_ground_truth(world.events());
  for (const auto& pair : dual.pairs) {
    EXPECT_EQ(truth.pairs.count(pair), 1u) << pair.first << "," << pair.second;
  }
}

TEST_P(PropertySweep, P3_ReadOnlyWorkloadsAreCleanUnderDualClock) {
  World world(world_config());
  workload::RandomConfig wl = contended_workload();
  wl.write_fraction = 0.0;
  workload::spawn_random(world, wl);
  ASSERT_TRUE(world.run().completed);
  EXPECT_EQ(world.races().count(), 0u);
  EXPECT_TRUE(analysis::compute_ground_truth(world.events()).pairs.empty());
  // The single-clock replay of the same execution sees "races" — the §IV.D
  // false positives — whenever two ranks ever touched one area.
  const auto single = analysis::replay_online(world.events(), DetectorMode::kSingleClock);
  const auto truth = analysis::compute_ground_truth(world.events());
  for (const auto& pair : single.pairs) {
    EXPECT_EQ(truth.pairs.count(pair), 0u) << "single-clock FP is a real race?";
  }
}

TEST_P(PropertySweep, P4_FullyLockedWorkloadsAreClean) {
  World world(world_config());
  workload::RandomConfig wl = contended_workload();
  wl.lock_fraction = 1.0;
  workload::spawn_random(world, wl);
  ASSERT_TRUE(world.run().completed);
  EXPECT_EQ(world.races().count(), 0u);
}

TEST_P(PropertySweep, P5_TruncationOnlyLosesRacesMonotonically) {
  World world(world_config());
  workload::spawn_random(world, contended_workload());
  ASSERT_TRUE(world.run().completed);
  const auto truth = analysis::compute_ground_truth(world.events());
  const auto sweep =
      analysis::truncation_sweep(world.events(), static_cast<std::size_t>(world.nprocs()));
  ASSERT_EQ(sweep.size(), static_cast<std::size_t>(world.nprocs()));
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(sweep[i].detected + sweep[i].missed, truth.pairs.size());
    if (i > 0) EXPECT_GE(sweep[i].detected, sweep[i - 1].detected);
  }
  EXPECT_EQ(sweep.back().missed, 0u);  // width n sees everything (§IV.C).
}

TEST_P(PropertySweep, P6_IdenticalConfigurationsProduceIdenticalReports) {
  auto run_once = [this] {
    World world(world_config());
    workload::spawn_random(world, contended_workload());
    EXPECT_TRUE(world.run().completed);
    std::vector<std::tuple<std::uint64_t, std::uint64_t, sim::Time>> trace;
    for (const auto& r : world.races().reports()) {
      trace.emplace_back(r.event_id, r.prior_event_id, r.time);
    }
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_P(PropertySweep, P7_OfflineReplayMatchesLiveReports) {
  World world(world_config());
  workload::spawn_random(world, contended_workload());
  ASSERT_TRUE(world.run().completed);
  const auto replayed = analysis::replay_online(world.events(), DetectorMode::kDualClock);
  EXPECT_EQ(replayed.pairs, live_pairs(world.races()));
}

TEST_P(PropertySweep, P8_EpochFastPathIsBitIdenticalToTheFullClockOracle) {
  // The sweep already spans all three transports and live executions use
  // the epoch fast path everywhere (home-side and initiator-side checks).
  // Replaying each execution's log through the production predicate and the
  // always-O(n) full-vector-clock oracle must produce identical detection:
  // same flagged events, same pairs, under both detector modes.
  World world(world_config());
  workload::spawn_random(world, contended_workload());
  ASSERT_TRUE(world.run().completed);
  for (const auto mode : {DetectorMode::kDualClock, DetectorMode::kSingleClock}) {
    const auto fast = analysis::replay_online(world.events(), mode);
    const auto oracle =
        analysis::replay_online(world.events(), mode, /*with_oracle=*/true);
    EXPECT_EQ(fast.flagged_events, oracle.flagged_events);
    EXPECT_EQ(fast.pairs, oracle.pairs);
  }
  // And the live report set (produced by the fast path) matches the oracle
  // replay of the run's own mode.
  const auto oracle_live =
      analysis::replay_online(world.events(), DetectorMode::kDualClock,
                              /*with_oracle=*/true);
  EXPECT_EQ(oracle_live.pairs, live_pairs(world.races()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PropertySweep,
    ::testing::Values(SweepParam{1, 2, Transport::kHomeSide},
                      SweepParam{2, 3, Transport::kHomeSide},
                      SweepParam{3, 4, Transport::kPiggyback},
                      SweepParam{4, 4, Transport::kSeparate},
                      SweepParam{5, 6, Transport::kHomeSide},
                      SweepParam{6, 8, Transport::kPiggyback},
                      SweepParam{7, 8, Transport::kHomeSide},
                      SweepParam{8, 10, Transport::kHomeSide},
                      SweepParam{9, 12, Transport::kSeparate},
                      SweepParam{10, 16, Transport::kHomeSide}),
    param_name);

}  // namespace
}  // namespace dsmr
