// End-to-end tests of the World/Process runtime: data movement semantics
// (Fig. 2), transfer atomicity (Fig. 3), locks, signals, transports,
// detector modes, deadlock reporting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "record/log.hpp"
#include "runtime/process.hpp"
#include "runtime/world.hpp"

namespace dsmr::runtime {
namespace {

using core::DetectorMode;
using core::Transport;
using mem::GlobalAddress;

WorldConfig quiet_config(int nprocs, DetectorMode mode = DetectorMode::kDualClock,
                         Transport transport = Transport::kHomeSide) {
  WorldConfig config;
  config.nprocs = nprocs;
  config.mode = mode;
  config.transport = transport;
  config.latency.jitter_ns = 0;  // deterministic timing for assertions.
  return config;
}

/// Accesses a run recorded: its issue events.
std::size_t accesses(const record::Log& log) {
  return static_cast<std::size_t>(
      std::count_if(log.events.begin(), log.events.end(),
                    [](const record::Event& e) { return record::opens_access(e.kind); }));
}

std::uint64_t read_u64(World& world, GlobalAddress addr) {
  std::uint64_t value = 0;
  const auto bytes = world.segment(addr.rank).read_bytes(addr.offset, 8);
  std::memcpy(&value, bytes.data(), 8);
  return value;
}

sim::Task put_then_done(Process& p, GlobalAddress dst, std::uint64_t value) {
  co_await p.put_value(dst, value);
}

TEST(Runtime, PutThenGetRoundTrip) {
  for (const auto transport :
       {Transport::kSeparate, Transport::kPiggyback, Transport::kHomeSide}) {
    World world(quiet_config(2, DetectorMode::kDualClock, transport));
    const GlobalAddress x = world.alloc(1, 8, "x");
    std::uint64_t read_back = 0;
    world.spawn(0, [x, &read_back](Process& p) -> sim::Task {
      co_await p.put_value(x, std::uint64_t{0xdeadbeef});
      read_back = co_await p.get_value<std::uint64_t>(x);
    });
    const auto report = world.run();
    EXPECT_TRUE(report.completed) << "transport " << to_string(transport);
    EXPECT_EQ(read_back, 0xdeadbeefu) << "transport " << to_string(transport);
    EXPECT_EQ(world.races().count(), 0u) << "transport " << to_string(transport);
  }
}

TEST(Runtime, LocalPublicAccessGoesThroughTheSamePath) {
  // §III.A: no distinction between remote and local access to public memory.
  World world(quiet_config(1));
  world.record();
  const GlobalAddress x = world.alloc(0, 8, "x");
  std::uint64_t read_back = 0;
  world.spawn(0, [x, &read_back](Process& p) -> sim::Task {
    co_await p.put_value(x, std::uint64_t{7});
    read_back = co_await p.get_value<std::uint64_t>(x);
  });
  EXPECT_TRUE(world.run().completed);
  EXPECT_EQ(read_back, 7u);
  // Both accesses are recorded like any remote op would be.
  EXPECT_EQ(accesses(world.log()), 2u);
}

TEST(Runtime, Figure2MessageCounts) {
  // Baseline (detection off): put = 1 data-path message (+ completion ack),
  // get = 2 messages — exactly the paper's Fig. 2 accounting.
  World world(quiet_config(2, DetectorMode::kOff));
  const GlobalAddress x = world.alloc(1, 8, "x");
  world.spawn(0, [x](Process& p) -> sim::Task {
    co_await p.put_value(x, std::uint64_t{1});
  });
  EXPECT_TRUE(world.run().completed);
  const auto& counters = world.traffic();
  EXPECT_EQ(counters.total_messages, 2u);       // commit + ack.
  EXPECT_EQ(counters.data_path_messages, 1u);   // "put involves one message".
  EXPECT_EQ(counters.clock_bytes, 0u);          // detection off: nothing charged.

  World world2(quiet_config(2, DetectorMode::kOff));
  const GlobalAddress y = world2.alloc(1, 8, "y");
  world2.spawn(0, [y](Process& p) -> sim::Task {
    co_await p.get(y, 8);
  });
  EXPECT_TRUE(world2.run().completed);
  EXPECT_EQ(world2.traffic().total_messages, 2u);      // request + response.
  EXPECT_EQ(world2.traffic().data_path_messages, 2u);  // "get involves two".
}

TEST(Runtime, TransportMessageCosts) {
  // The detection-overhead ladder (the transport table in nic/nic.hpp):
  // separate 9, piggyback 4, home-side 2 messages per put.
  const std::map<Transport, std::uint64_t> expected_put = {
      {Transport::kSeparate, 9}, {Transport::kPiggyback, 4}, {Transport::kHomeSide, 2}};
  for (const auto& [transport, messages] : expected_put) {
    World world(quiet_config(2, DetectorMode::kDualClock, transport));
    const GlobalAddress x = world.alloc(1, 8, "x");
    world.spawn(0, [x](Process& p) -> sim::Task {
      co_await p.put_value(x, std::uint64_t{1});
    });
    EXPECT_TRUE(world.run().completed);
    EXPECT_EQ(world.traffic().total_messages, messages)
        << "put transport " << to_string(transport);
    EXPECT_GT(world.traffic().clock_bytes, 0u);
  }
  // Gets: separate 9, piggyback/home-side 2.
  const std::map<Transport, std::uint64_t> expected_get = {
      {Transport::kSeparate, 9}, {Transport::kPiggyback, 2}, {Transport::kHomeSide, 2}};
  for (const auto& [transport, messages] : expected_get) {
    World world(quiet_config(2, DetectorMode::kDualClock, transport));
    const GlobalAddress x = world.alloc(1, 8, "x");
    world.spawn(0, [x](Process& p) -> sim::Task { co_await p.get(x, 8); });
    EXPECT_TRUE(world.run().completed);
    EXPECT_EQ(world.traffic().total_messages, messages)
        << "get transport " << to_string(transport);
  }
}

TEST(Runtime, Figure3PutDelayedUntilGetCompletes) {
  // P2 gets a large area from P1 while P0 sends a SMALL put into the same
  // area. The put message reaches the home NIC in a few µs — long before
  // the get's ~85 µs response transfer completes — yet it must queue behind
  // the area lock until the transfer is done (Fig. 3), so the get returns
  // the *old* contents and the put completes only after the get.
  WorldConfig config = quiet_config(3, DetectorMode::kOff);
  config.segment_bytes = 1 << 20;
  World world(config);
  const std::uint32_t size = 256 * 1024;  // ~85 µs transfer at 3 GB/s.
  const GlobalAddress x = world.alloc(1, size, "x");
  // Pre-initialize the area with a known pattern (initial state, no event).
  std::vector<std::byte> initial(size, std::byte{0xAA});
  world.segment(1).write_bytes(x.offset, initial);

  std::vector<std::byte> got;
  sim::Time get_done = 0, put_done = 0, put_started = 0;
  world.spawn(2, [x, size, &got, &get_done](Process& p) -> sim::Task {
    got = co_await p.get(x, size);
    get_done = p.now();
  });
  world.spawn(0, [x, &put_done, &put_started](Process& p) -> sim::Task {
    co_await p.sleep(10'000);  // the put message lands mid-transfer.
    put_started = p.now();
    co_await p.put_value(x, std::uint64_t{0xBBBBBBBBBBBBBBBB});
    put_done = p.now();
  });
  EXPECT_TRUE(world.run().completed);
  // The get observed the pre-put contents in full (atomicity)...
  ASSERT_EQ(got.size(), initial.size());
  EXPECT_EQ(got, initial);
  // ...the put finished only after the get's transfer was done...
  EXPECT_GT(put_done, get_done);
  // ...having been *delayed*: an uncontended 8-byte put takes ~3 µs, but
  // this one waited out most of the remaining transfer (> 50 µs).
  EXPECT_GT(put_done - put_started, 50'000u);
  // The put did land eventually.
  EXPECT_EQ(world.segment(1).read_bytes(x.offset, 1)[0], std::byte{0xBB});
}

TEST(Runtime, ConcurrentWritesAreDetected) {
  for (const auto transport :
       {Transport::kSeparate, Transport::kPiggyback, Transport::kHomeSide}) {
    World world(quiet_config(3, DetectorMode::kDualClock, transport));
    const GlobalAddress x = world.alloc(1, 8, "x");
    world.spawn(0, [x](Process& p) { return put_then_done(p, x, 1); });
    world.spawn(2, [x](Process& p) { return put_then_done(p, x, 2); });
    EXPECT_TRUE(world.run().completed);
    EXPECT_GE(world.races().count(), 1u) << "transport " << to_string(transport);
    const auto& report = world.races().reports().front();
    EXPECT_EQ(report.kind, core::AccessKind::kWrite);
    EXPECT_EQ(report.area_name, "x");
  }
}

TEST(Runtime, CausallyOrderedWritesAreNotRaces) {
  for (const auto transport :
       {Transport::kSeparate, Transport::kPiggyback, Transport::kHomeSide}) {
    World world(quiet_config(3, DetectorMode::kDualClock, transport));
    const GlobalAddress x = world.alloc(1, 8, "x");
    world.spawn(0, [x](Process& p) -> sim::Task {
      co_await p.put_value(x, std::uint64_t{1});
      p.signal(2, 99);  // completion knowledge flows to P2...
    });
    world.spawn(2, [x](Process& p) -> sim::Task {
      co_await p.wait_signal(99);
      co_await p.put_value(x, std::uint64_t{2});  // ...so this write is ordered.
    });
    EXPECT_TRUE(world.run().completed);
    EXPECT_EQ(world.races().count(), 0u) << "transport " << to_string(transport);
  }
}

TEST(Runtime, SequentialWritesBySameRankAreNotRaces) {
  // Program order + FIFO: a process re-writing its datum is never racy,
  // even with unacknowledged puts.
  WorldConfig config = quiet_config(2);
  config.acked_puts = false;
  World world(config);
  const GlobalAddress x = world.alloc(1, 8, "x");
  world.spawn(0, [x](Process& p) -> sim::Task {
    for (std::uint64_t i = 0; i < 5; ++i) co_await p.put_value(x, i);
  });
  EXPECT_TRUE(world.run().completed);
  EXPECT_EQ(world.races().count(), 0u);
}

TEST(Runtime, UnackedPutsMakeProduceThenNotifyRacy) {
  // The paper's pure one-sided puts: completion conveys no knowledge, so
  // "put, then signal, then the peer writes" cannot be proven ordered. This
  // is the regime of Fig. 5c.
  WorldConfig config = quiet_config(3);
  config.acked_puts = false;
  World world(config);
  const GlobalAddress x = world.alloc(1, 8, "x");
  world.spawn(0, [x](Process& p) -> sim::Task {
    co_await p.put_value(x, std::uint64_t{1});
    p.signal(2, 99);
  });
  world.spawn(2, [x](Process& p) -> sim::Task {
    co_await p.wait_signal(99);
    co_await p.put_value(x, std::uint64_t{2});
  });
  EXPECT_TRUE(world.run().completed);
  EXPECT_GE(world.races().count(), 1u);
}

TEST(Runtime, OffModeNeverReports) {
  World world(quiet_config(3, DetectorMode::kOff));
  const GlobalAddress x = world.alloc(1, 8, "x");
  world.spawn(0, [x](Process& p) { return put_then_done(p, x, 1); });
  world.spawn(2, [x](Process& p) { return put_then_done(p, x, 2); });
  EXPECT_TRUE(world.run().completed);
  EXPECT_EQ(world.races().count(), 0u);
  EXPECT_EQ(world.traffic().clock_bytes, 0u);
}

TEST(Runtime, GetMovesDataBetweenRanks) {
  World world(quiet_config(2));
  const GlobalAddress x = world.alloc(0, 8, "x");
  std::uint64_t seen = 0;
  world.spawn(0, [x](Process& p) -> sim::Task {
    co_await p.put_value(x, std::uint64_t{321});
    p.signal(1, 5);
  });
  world.spawn(1, [x, &seen](Process& p) -> sim::Task {
    co_await p.wait_signal(5);
    seen = co_await p.get_value<std::uint64_t>(x);
  });
  EXPECT_TRUE(world.run().completed);
  EXPECT_EQ(seen, 321u);
  EXPECT_EQ(world.races().count(), 0u);  // the signal ordered the read.
}

TEST(Runtime, CopyMovesDataWithinPublicSpace) {
  World world(quiet_config(3));
  world.record();
  const GlobalAddress src = world.alloc(1, 8, "src");
  const GlobalAddress dst = world.alloc(2, 8, "dst");
  world.spawn(0, [src, dst](Process& p) -> sim::Task {
    co_await p.put_value(src, std::uint64_t{77});
    co_await p.copy(src, dst, 8);
  });
  EXPECT_TRUE(world.run().completed);
  EXPECT_EQ(read_u64(world, dst), 77u);
  // copy = instrumented read + instrumented write: 3 accesses total with
  // the initial put.
  EXPECT_EQ(accesses(world.log()), 3u);
}

TEST(Runtime, UserLocksSerializeReadModifyWrite) {
  // Two processes increment a counter 20 times each under the area lock:
  // no lost updates and no race reports (lock handoff orders the clocks).
  World world(quiet_config(3));
  const GlobalAddress counter = world.alloc(0, 8, "counter");
  auto incrementer = [counter](Process& p) -> sim::Task {
    for (int i = 0; i < 20; ++i) {
      co_await p.lock(counter);
      const auto v = co_await p.get_value<std::uint64_t>(counter);
      co_await p.put_value(counter, v + 1);
      co_await p.unlock(counter);
    }
  };
  world.spawn(1, incrementer);
  world.spawn(2, incrementer);
  EXPECT_TRUE(world.run().completed);
  EXPECT_EQ(read_u64(world, counter), 40u);
  EXPECT_EQ(world.races().count(), 0u);
}

TEST(Runtime, UnlockedReadModifyWriteRacesAndMayLoseUpdates) {
  World world(quiet_config(3));
  const GlobalAddress counter = world.alloc(0, 8, "counter");
  auto incrementer = [counter](Process& p) -> sim::Task {
    for (int i = 0; i < 20; ++i) {
      const auto v = co_await p.get_value<std::uint64_t>(counter);
      co_await p.put_value(counter, v + 1);
    }
  };
  world.spawn(1, incrementer);
  world.spawn(2, incrementer);
  EXPECT_TRUE(world.run().completed);
  EXPECT_GE(world.races().count(), 1u);
  const auto final_value = read_u64(world, counter);
  EXPECT_LE(final_value, 40u);  // updates may be lost, never invented.
  EXPECT_GT(final_value, 0u);
}

TEST(Runtime, LockHandoffDisabledReportsLockedProgramsAsRacy) {
  // Ablation: without the release→acquire clock edge, the detector cannot
  // see the ordering the lock provides.
  WorldConfig config = quiet_config(3);
  config.lock_clock_handoff = false;
  World world(config);
  const GlobalAddress counter = world.alloc(0, 8, "counter");
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
  // Mutual exclusion still holds (no lost updates)...
  EXPECT_EQ(read_u64(world, counter), 10u);
  // ...but the detector now flags the accesses.
  EXPECT_GE(world.races().count(), 1u);
}

TEST(Runtime, SignalsCarryPayload) {
  World world(quiet_config(2));
  std::vector<std::byte> received;
  world.spawn(0, [](Process& p) -> sim::Task {
    const std::vector<std::byte> payload = {std::byte{9}, std::byte{8}};
    p.signal(1, 42, payload);
    co_return;
  });
  world.spawn(1, [&received](Process& p) -> sim::Task {
    received = co_await p.wait_signal(42);
  });
  EXPECT_TRUE(world.run().completed);
  EXPECT_EQ(received, (std::vector<std::byte>{std::byte{9}, std::byte{8}}));
}

TEST(Runtime, SignalBeforeWaitIsQueued) {
  World world(quiet_config(2));
  bool got = false;
  world.spawn(0, [](Process& p) -> sim::Task {
    p.signal(1, 7);
    co_return;
  });
  world.spawn(1, [&got](Process& p) -> sim::Task {
    co_await p.compute(100'000);  // the signal arrives long before the wait.
    co_await p.wait_signal(7);
    got = true;
  });
  EXPECT_TRUE(world.run().completed);
  EXPECT_TRUE(got);
}

TEST(Runtime, DeadlockIsReportedNotHung) {
  // Classic lock-order inversion across two ranks.
  World world(quiet_config(2));
  const GlobalAddress a = world.alloc(0, 8, "a");
  const GlobalAddress b = world.alloc(1, 8, "b");
  world.spawn(0, [a, b](Process& p) -> sim::Task {
    co_await p.lock(a);
    co_await p.compute(10'000);
    co_await p.lock(b);  // never granted.
    co_await p.unlock(b);
    co_await p.unlock(a);
  });
  world.spawn(1, [a, b](Process& p) -> sim::Task {
    co_await p.lock(b);
    co_await p.compute(10'000);
    co_await p.lock(a);  // never granted.
    co_await p.unlock(a);
    co_await p.unlock(b);
  });
  const auto report = world.run();
  EXPECT_FALSE(report.completed);
  EXPECT_EQ(report.stuck_ranks.size(), 2u);
}

TEST(Runtime, RunReportCountsRacesAndTime) {
  World world(quiet_config(3));
  const GlobalAddress x = world.alloc(1, 8, "x");
  world.spawn(0, [x](Process& p) { return put_then_done(p, x, 1); });
  world.spawn(2, [x](Process& p) { return put_then_done(p, x, 2); });
  const auto report = world.run();
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.race_count, world.races().count());
  EXPECT_GT(report.end_time, 0u);
  EXPECT_GT(report.engine_events, 0u);
}

TEST(Runtime, ComputeAdvancesVirtualTime) {
  World world(quiet_config(1));
  sim::Time end = 0;
  world.spawn(0, [&end](Process& p) -> sim::Task {
    co_await p.compute(123'456);
    end = p.now();
  });
  EXPECT_TRUE(world.run().completed);
  EXPECT_GE(end, 123'456u);
}

TEST(Runtime, ClockBytesScaleWithProcessesAndAreas) {
  // CLAIM-V.A1: 2 clock states per area, one varint per process plus the
  // epoch witness — still linear in n and in the area count, but well below
  // the fixed 2 × n × 8 bytes per area.
  for (int n : {2, 4, 8}) {
    WorldConfig config = quiet_config(n);
    World world(config);
    world.alloc(0, 8, "a");
    world.alloc(0, 8, "b");
    world.alloc(1 % n, 8, "c");
    const std::size_t per_area = world.detector(0).area_storage_bytes(0);
    EXPECT_EQ(per_area, 2u * (static_cast<std::size_t>(n) + 2u));
    EXPECT_EQ(world.total_clock_bytes(), 3u * per_area);
    EXPECT_LT(world.total_clock_bytes(), 3u * 2u * static_cast<std::size_t>(n) * 8u);
  }
}

TEST(Runtime, DeterministicRacesAcrossRuns) {
  auto run_once = [] {
    WorldConfig config;
    config.nprocs = 4;
    config.seed = 2024;
    World world(config);
    const GlobalAddress x = world.alloc(1, 8, "x");
    const GlobalAddress y = world.alloc(2, 8, "y");
    for (Rank r = 0; r < 4; ++r) {
      world.spawn(r, [x, y, r](Process& p) -> sim::Task {
        co_await p.put_value(x, static_cast<std::uint64_t>(r));
        co_await p.get(y, 8);
        co_await p.put_value(y, static_cast<std::uint64_t>(r));
      });
    }
    world.run();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> races;
    for (const auto& r : world.races().reports()) {
      races.emplace_back(r.event_id, r.prior_event_id);
    }
    return races;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace dsmr::runtime
