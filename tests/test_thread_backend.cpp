// Tests for the real-threads execution backend (runtime::ThreadWorld /
// net::ThreadFabric) and its differential harness: clean and always-racy
// fuzzed slices compared against the sim oracle by verdict signature,
// quiescent shutdown with join-all (stuck ranks instead of leaked threads),
// the inline detection path on handwritten programs (which, in debug
// builds, auto-cross-checks every verdict against check_access_oracle — see
// core/rules.hpp), the per-thread NIC resolver cache hammered from many
// threads, and the sharded traffic-counter fold.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fuzz/generate.hpp"
#include "fuzz/thread_harness.hpp"
#include "net/message.hpp"
#include "runtime/thread_world.hpp"
#include "runtime/world.hpp"

namespace dsmr {
namespace {

using runtime::ThreadProcess;
using runtime::ThreadWorld;
using runtime::ThreadWorldConfig;

ThreadWorldConfig small_world(int nprocs) {
  ThreadWorldConfig config;
  config.nprocs = nprocs;
  config.segment_bytes = 1 << 12;
  // Tests that deadlock on purpose must fail fast, not in 20 s.
  config.run_timeout = std::chrono::milliseconds(2'000);
  return config;
}

std::vector<std::byte> stamp_bytes(std::uint64_t value) {
  std::vector<std::byte> bytes(8);
  std::memcpy(bytes.data(), &value, sizeof(value));
  return bytes;
}

std::set<std::string> racy_areas(ThreadWorld& world) {
  std::set<std::string> names;
  for (const auto& report : world.races().unique_by_area()) {
    names.insert(report.area_name);
  }
  return names;
}

// ---------------------------------------------------------------------------
// Differential fuzzed slices (the tentpole contract)
// ---------------------------------------------------------------------------

fuzz::BackendDiffOptions quick_diff() {
  fuzz::BackendDiffOptions options;
  options.thread_reps = 2;
  options.sim_schedule_seeds = 1;
  options.thread.timeout = std::chrono::milliseconds(10'000);
  return options;
}

TEST(ThreadBackendDiff, CleanFuzzedSliceIsCleanOnBothBackends) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    fuzz::GenConfig gen;
    gen.seed = seed;
    gen.plant_bug = false;
    const auto program = fuzz::generate_program(gen);
    ASSERT_EQ(program.expect, fuzz::Expectation::kClean);
    const auto diff = fuzz::check_program_backends(program, quick_diff());
    for (const auto& failure : diff.failures) ADD_FAILURE() << "s" << seed << ": " << failure;
    EXPECT_EQ(diff.thread_manifested, 0u) << "seed " << seed;
    EXPECT_EQ(diff.sim_manifested, 0u) << "seed " << seed;
    EXPECT_GT(diff.checks, 0u);
  }
}

TEST(ThreadBackendDiff, AlwaysRacySliceIsFlaggedOnBothBackends) {
  for (const auto kind : {fuzz::BugKind::kDroppedEdge, fuzz::BugKind::kWrongLock}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      fuzz::GenConfig gen;
      gen.seed = seed;
      gen.plant_bug = true;
      gen.bug_kind = kind;
      const auto program = fuzz::generate_program(gen);
      ASSERT_EQ(program.expect, fuzz::Expectation::kRacy);
      const auto diff = fuzz::check_program_backends(program, quick_diff());
      for (const auto& failure : diff.failures) {
        ADD_FAILURE() << fuzz::to_string(kind) << " s" << seed << ": " << failure;
      }
      // "On every run" — manifested must equal the run count on both sides.
      EXPECT_EQ(diff.thread_manifested, diff.thread_runs);
      EXPECT_EQ(diff.sim_manifested, diff.sim_runs);
    }
  }
}

TEST(ThreadBackendDiff, SometimesKindsAreInformationalNeverDivergences) {
  // Schedule-dependent kinds: real schedules legitimately differ from the
  // sim's, so manifestation is counted but never a failure.
  for (const auto kind : {fuzz::BugKind::kPartialBarrier, fuzz::BugKind::kAckWindow}) {
    fuzz::GenConfig gen;
    gen.seed = 7;
    gen.plant_bug = true;
    gen.bug_kind = kind;
    const auto program = fuzz::generate_program(gen);
    ASSERT_EQ(program.expect, fuzz::Expectation::kSometimes);
    const auto diff = fuzz::check_program_backends(program, quick_diff());
    for (const auto& failure : diff.failures) {
      ADD_FAILURE() << fuzz::to_string(kind) << ": " << failure;
    }
  }
}

TEST(ThreadBackendDiff, SweepSeedMappingMatchesUniformScheduleAndAggregates) {
  fuzz::ThreadSweepConfig sweep;
  sweep.seeds = util::SeedRange{1, 8};
  sweep.planted_fraction = 0.5;
  sweep.bug_kinds = fuzz::eligible_bug_kinds(sweep.base);
  sweep.diff = quick_diff();
  sweep.diff.compare_sim = false;  // threaded self-check is enough here.
  const auto result = fuzz::run_thread_sweep(sweep);
  EXPECT_EQ(result.programs, 8u);
  EXPECT_EQ(result.clean_programs + result.racy_programs + result.sometimes_programs,
            result.programs);
  EXPECT_EQ(result.thread_runs, 8u * 2u);
  // Every program got the record→replay treatment: one recorded run folded
  // offline plus two gate-forced replays, all matching the live verdicts.
  EXPECT_EQ(result.record_replay_checks, 8u);
  EXPECT_GT(result.checks, 0u);
  EXPECT_GT(result.wall_ns, 0u);
  EXPECT_GT(result.checks_per_sec(), 0.0);
  for (const auto& divergence : result.divergences) {
    ADD_FAILURE() << "s" << divergence.program_seed << " [" << divergence.arm
                  << "]: " << divergence.failure;
  }
}

// ---------------------------------------------------------------------------
// Shutdown and quiescence
// ---------------------------------------------------------------------------

TEST(ThreadBackend, QuiescentRunCompletesAndJoinsAllThreads) {
  ThreadWorld world(small_world(4));
  const auto area = world.alloc(0, 8, "ping");
  for (Rank r = 0; r < 4; ++r) {
    world.spawn(r, [area](ThreadProcess& p) {
      // A little ring of signals plus data ops: every rank both blocks and
      // wakes someone, then quiesces.
      const Rank next = static_cast<Rank>((p.rank() + 1) % p.nprocs());
      if (p.rank() == 0) p.put(area, stamp_bytes(1));
      p.signal(next, 10 + static_cast<std::uint64_t>(next));
      p.wait_signal(10 + static_cast<std::uint64_t>(p.rank()));
      p.get(area, 8);
    });
  }
  const auto report = world.run();
  EXPECT_TRUE(report.completed);
  EXPECT_TRUE(report.stuck_ranks.empty());
  EXPECT_GT(report.checks, 0u);
  EXPECT_GT(report.wall_ns, 0u);
  // If the join-all contract broke, ASan/TSan builds of this test would
  // report leaked threads at exit.
}

TEST(ThreadBackend, OrphanedWaitBecomesStuckRankAndStillJoins) {
  ThreadWorldConfig config = small_world(3);
  config.run_timeout = std::chrono::milliseconds(200);
  ThreadWorld world(config);
  world.spawn(0, [](ThreadProcess& p) { p.wait_signal(42); });  // nobody signals.
  world.spawn(1, [](ThreadProcess& p) { p.sleep(1'000); });
  const auto report = world.run();
  EXPECT_FALSE(report.completed);
  EXPECT_EQ(report.stuck_ranks, std::vector<Rank>{0});
}

TEST(ThreadBackend, StuckLockWaiterIsReportedNotWedged) {
  ThreadWorldConfig config = small_world(2);
  config.run_timeout = std::chrono::milliseconds(300);
  ThreadWorld world(config);
  const auto area = world.alloc(0, 8, "held");
  world.spawn(0, [area](ThreadProcess& p) {
    p.lock(area);
    p.signal(1, 7);     // rank 1 must queue behind this holder, not win the lock.
    p.wait_signal(99);  // blocks forever while holding the lock.
  });
  world.spawn(1, [area](ThreadProcess& p) {
    p.wait_signal(7);
    p.lock(area);
  });
  const auto report = world.run();
  EXPECT_FALSE(report.completed);
  EXPECT_EQ(report.stuck_ranks, (std::vector<Rank>{0, 1}));
}

// ---------------------------------------------------------------------------
// Inline detection on handwritten programs (debug builds cross-check every
// verdict against the full-VC oracle inside core::check_access)
// ---------------------------------------------------------------------------

TEST(ThreadBackend, DroppedEdgeIsFlaggedInlineOnEveryRealSchedule) {
  // The kDroppedEdge shape by hand: two ranks write the same third-rank
  // area with no synchronization. Whichever access the shard mutex
  // serializes second observes a concurrent stored clock — flagged on
  // every real schedule, whatever the interleaving.
  for (int rep = 0; rep < 16; ++rep) {
    ThreadWorld world(small_world(3));
    const auto contested = world.alloc(2, 8, "contested");
    world.spawn(0, [contested](ThreadProcess& p) {
      p.sleep(500);
      p.put(contested, stamp_bytes(1));
    });
    world.spawn(1, [contested](ThreadProcess& p) { p.put(contested, stamp_bytes(2)); });
    const auto report = world.run();
    EXPECT_TRUE(report.completed);
    EXPECT_GE(report.race_count, 1u) << "rep " << rep;
    EXPECT_EQ(racy_areas(world), std::set<std::string>{"contested"});
  }
}

TEST(ThreadBackend, SignalEdgeOrdersTheSamePairClean) {
  for (int rep = 0; rep < 16; ++rep) {
    ThreadWorld world(small_world(3));
    const auto area = world.alloc(2, 8, "handoff");
    world.spawn(0, [area](ThreadProcess& p) {
      p.put(area, stamp_bytes(1));
      p.signal(1, 7);
    });
    world.spawn(1, [area](ThreadProcess& p) {
      p.wait_signal(7);
      p.put(area, stamp_bytes(2));
    });
    const auto report = world.run();
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.race_count, 0u) << "rep " << rep;
  }
}

TEST(ThreadBackend, LockHandoffOrdersCriticalSectionsClean) {
  for (int rep = 0; rep < 8; ++rep) {
    ThreadWorld world(small_world(4));
    const auto area = world.alloc(0, 8, "locked");
    for (Rank r = 0; r < 4; ++r) {
      world.spawn(r, [area](ThreadProcess& p) {
        for (int i = 0; i < 4; ++i) {
          p.lock(area);
          p.put(area, stamp_bytes(static_cast<std::uint64_t>(i)));
          p.get(area, 8);
          p.unlock(area);
        }
      });
    }
    const auto report = world.run();
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.race_count, 0u) << "rep " << rep;
    EXPECT_EQ(report.checks, 4u * 4u * 2u);
  }
}

TEST(ThreadBackend, ReadsDoNotRaceWithReadsUnderDualClock) {
  ThreadWorld world(small_world(4));
  const auto area = world.alloc(0, 8, "shared-read");
  for (Rank r = 0; r < 4; ++r) {
    world.spawn(r, [area](ThreadProcess& p) {
      for (int i = 0; i < 8; ++i) p.get(area, 8);
    });
  }
  const auto report = world.run();
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.race_count, 0u);
}

// ---------------------------------------------------------------------------
// Satellite regressions: area resolution, counter sharding
// ---------------------------------------------------------------------------

TEST(ThreadBackend, SimNicResolveIsSafeAndExactUnderEightThreads) {
  // Regression held across two generations of resolver: the original
  // one-entry mutable member cache (a data race under TSan and a stale-hit
  // source), then a thread_local keyed cache, now a direct delegation to the
  // segment's read-only index. Concurrent lookups must stay exact and
  // TSan-clean with no per-thread state at all.
  runtime::WorldConfig config;
  config.nprocs = 2;
  runtime::World world(config);
  std::vector<mem::GlobalAddress> areas;
  for (int a = 0; a < 4; ++a) {
    areas.push_back(world.alloc(0, 64, "area" + std::to_string(a)));
  }
  auto& nic = world.nic(0);
  std::vector<std::thread> threads;
  std::vector<int> wrong_counts(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([t, &nic, &areas, &wrong_counts]() {
      for (int i = 0; i < 20'000; ++i) {
        // Each thread walks the areas in its own order, so the old shared
        // entry would have been overwritten under every thread constantly.
        const auto& addr = areas[static_cast<std::size_t>((i + t) % 4)];
        const mem::Area* area = nic.resolve(0, addr.offset, 8);
        if (area == nullptr || area->offset != addr.offset) ++wrong_counts[t];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(wrong_counts[t], 0) << "thread " << t;
}

TEST(ThreadBackend, TrafficShardsFoldToExactPerTypeCounts) {
  ThreadWorld world(small_world(4));
  std::vector<mem::GlobalAddress> areas;
  for (Rank r = 0; r < 4; ++r) {
    std::string name = "a";  // appended: GCC 12 misreports "a" + ... under -Wrestrict.
    name += std::to_string(r);
    areas.push_back(world.alloc(r, 8, std::move(name)));
  }
  for (Rank r = 0; r < 4; ++r) {
    world.spawn(r, [&areas](ThreadProcess& p) {
      const auto target = areas[static_cast<std::size_t>((p.rank() + 1) % p.nprocs())];
      for (int i = 0; i < 3; ++i) p.put(target, stamp_bytes(7));
      for (int i = 0; i < 2; ++i) p.get(target, 8);
      p.signal(static_cast<Rank>((p.rank() + 1) % p.nprocs()), 5);
      p.wait_signal(5);
    });
  }
  const auto report = world.run();
  ASSERT_TRUE(report.completed);
  const auto traffic = world.traffic();
  EXPECT_EQ(traffic.messages(net::MsgType::kPutCommit), 4u * 3u);
  EXPECT_EQ(traffic.messages(net::MsgType::kPutCommitAck), 4u * 3u);
  EXPECT_EQ(traffic.messages(net::MsgType::kGetLockedRequest), 4u * 2u);
  EXPECT_EQ(traffic.messages(net::MsgType::kGetLockedResponse), 4u * 2u);
  EXPECT_EQ(traffic.messages(net::MsgType::kSignal), 4u);
  EXPECT_EQ(traffic.total_messages, 4u * (3u + 3u + 2u + 2u) + 4u);
  // One inline check per one-sided data op.
  EXPECT_EQ(report.checks, 4u * (3u + 2u));
  // Payload bytes: 8 per put commit and per get response, charged once.
  EXPECT_EQ(traffic.payload_bytes, (4u * 3u + 4u * 2u) * 8u);
}

TEST(ThreadBackend, TrafficCountersMergeAddsEveryField) {
  net::TrafficCounters a;
  net::TrafficCounters b;
  net::Message m;
  m.type = net::MsgType::kPutCommit;
  m.data.resize(16);
  a.record(m);
  b.record(m);
  b.record(m);
  b.retry_messages = 3;
  b.faults_injected = 2;
  a.merge(b);
  EXPECT_EQ(a.messages(net::MsgType::kPutCommit), 3u);
  EXPECT_EQ(a.total_messages, 3u);
  EXPECT_EQ(a.payload_bytes, 48u);
  EXPECT_EQ(a.retry_messages, 3u);
  EXPECT_EQ(a.faults_injected, 2u);
}

}  // namespace
}  // namespace dsmr
