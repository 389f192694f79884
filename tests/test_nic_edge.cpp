// NIC edge cases: operations through a user-held lock (re-entrant delegated
// grants), lock/unlock misuse, unregistered accesses, and protocol behaviour
// under every transport while locks are held.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "runtime/process.hpp"
#include "runtime/world.hpp"

namespace dsmr::runtime {
namespace {

using core::DetectorMode;
using core::Transport;
using mem::GlobalAddress;

WorldConfig config_with(Transport transport) {
  WorldConfig config;
  config.nprocs = 3;
  config.transport = transport;
  config.latency.jitter_ns = 0;
  return config;
}

class NicEdgeTransports : public ::testing::TestWithParam<Transport> {};

TEST_P(NicEdgeTransports, OwnOpsProceedThroughHeldUserLock) {
  // A rank that holds an area's user lock must still be able to put/get to
  // that area (re-entrant delegated grant); another rank's op must wait.
  World world(config_with(GetParam()));
  const GlobalAddress x = world.alloc(1, 8, "x");
  sim::Time locked_holder_done = 0, other_done = 0;
  world.spawn(0, [x, &locked_holder_done](Process& p) -> sim::Task {
    co_await p.lock(x);
    co_await p.put_value(x, std::uint64_t{1});          // via delegated grant.
    const auto v = co_await p.get_value<std::uint64_t>(x);
    EXPECT_EQ(v, 1u);
    co_await p.compute(50'000);                          // hold the lock a while.
    co_await p.unlock(x);
    locked_holder_done = p.now();
  });
  world.spawn(2, [x, &other_done](Process& p) -> sim::Task {
    co_await p.sleep(5'000);
    co_await p.put_value(x, std::uint64_t{2});           // must wait for unlock.
    other_done = p.now();
  });
  EXPECT_TRUE(world.run().completed);
  EXPECT_GT(other_done, locked_holder_done);
  // The final value is the waiter's.
  std::uint64_t final_value = 0;
  const auto bytes = world.segment(1).read_bytes(x.offset, 8);
  std::memcpy(&final_value, bytes.data(), 8);
  EXPECT_EQ(final_value, 2u);
}

TEST_P(NicEdgeTransports, HolderOpsDoNotReleaseTheUserLock) {
  // After the holder's op completes through the delegated grant, the lock
  // must still be held (the op's implicit unlock is a no-op).
  World world(config_with(GetParam()));
  const GlobalAddress x = world.alloc(1, 8, "x");
  bool checked = false;
  world.spawn(0, [x, &world, &checked](Process& p) -> sim::Task {
    co_await p.lock(x);
    co_await p.put_value(x, std::uint64_t{7});
    // Probe NIC state directly: still locked after our op.
    EXPECT_TRUE(world.nic(1).locks().is_locked(0));
    checked = true;
    co_await p.unlock(x);
  });
  EXPECT_TRUE(world.run().completed);
  EXPECT_TRUE(checked);
  EXPECT_FALSE(world.nic(1).locks().is_locked(0));
}

INSTANTIATE_TEST_SUITE_P(AllTransports, NicEdgeTransports,
                         ::testing::Values(Transport::kSeparate, Transport::kPiggyback,
                                           Transport::kHomeSide),
                         [](const auto& info) {
                           switch (info.param) {
                             case Transport::kSeparate: return "Separate";
                             case Transport::kPiggyback: return "Piggyback";
                             case Transport::kHomeSide: return "HomeSide";
                           }
                           return "Unknown";
                         });

TEST(NicEdge, LockIsFairAcrossManyWaiters) {
  // FIFO grants: ranks acquire in request-arrival order.
  WorldConfig config;
  config.nprocs = 5;
  config.latency.jitter_ns = 0;
  World world(config);
  const GlobalAddress x = world.alloc(0, 8, "x");
  std::vector<Rank> grant_order;
  for (Rank r = 1; r < 5; ++r) {
    world.spawn(r, [x, r, &grant_order](Process& p) -> sim::Task {
      co_await p.sleep(static_cast<sim::Time>(r) * 1'000);  // staggered requests.
      co_await p.lock(x);
      grant_order.push_back(r);
      co_await p.compute(20'000);  // ensure later requesters queue.
      co_await p.unlock(x);
    });
  }
  EXPECT_TRUE(world.run().completed);
  EXPECT_EQ(grant_order, (std::vector<Rank>{1, 2, 3, 4}));
}

TEST(NicEdgeDeath, ReentrantUserLockPanics) {
  World world(config_with(Transport::kHomeSide));
  const GlobalAddress x = world.alloc(1, 8, "x");
  world.spawn(0, [x](Process& p) -> sim::Task {
    co_await p.lock(x);
    co_await p.lock(x);  // user error.
  });
  EXPECT_DEATH(world.run(), "re-entrant user lock");
}

TEST(NicEdgeDeath, UnlockWithoutLockPanics) {
  World world(config_with(Transport::kHomeSide));
  const GlobalAddress x = world.alloc(1, 8, "x");
  world.spawn(0, [x](Process& p) -> sim::Task { co_await p.unlock(x); });
  EXPECT_DEATH(world.run(), "does not hold");
}

TEST(NicEdgeDeath, UnregisteredAccessPanics) {
  World world(config_with(Transport::kHomeSide));
  world.alloc(1, 8, "x");
  world.spawn(0, [](Process& p) -> sim::Task {
    co_await p.put_value(mem::GlobalAddress{1, 4096}, std::uint64_t{1});
  });
  EXPECT_DEATH(world.run(), "unregistered");
}

TEST(NicEdgeDeath, AccessStraddlingAreasPanics) {
  World world(config_with(Transport::kHomeSide));
  const GlobalAddress a = world.alloc(1, 8, "a");
  world.alloc(1, 8, "b");  // adjacent.
  world.spawn(0, [a](Process& p) -> sim::Task {
    std::vector<std::byte> bytes(12);  // crosses the a/b boundary.
    co_await p.put(a, bytes);
  });
  EXPECT_DEATH(world.run(), "unregistered");
}

TEST(NicEdge, ManySmallAreasOnOneRank) {
  // Registration scalability smoke test: 512 areas, interleaved access.
  WorldConfig config;
  config.nprocs = 2;
  config.segment_bytes = 1 << 16;
  World world(config);
  std::vector<GlobalAddress> areas;
  for (int i = 0; i < 512; ++i) {
    std::string name = "a";  // appended: GCC 12 misreports "a" + ... under -Wrestrict.
    name += std::to_string(i);
    areas.push_back(world.alloc(1, 8, std::move(name)));
  }
  world.spawn(0, [areas](Process& p) -> sim::Task {
    for (std::size_t i = 0; i < areas.size(); i += 7) {
      co_await p.put_value(areas[i], static_cast<std::uint64_t>(i));
    }
    for (std::size_t i = 0; i < areas.size(); i += 7) {
      EXPECT_EQ(co_await p.get_value<std::uint64_t>(areas[i]), i);
    }
  });
  EXPECT_TRUE(world.run().completed);
  EXPECT_EQ(world.races().count(), 0u);
}

TEST(NicEdge, ZeroJitterAndHighJitterBothComplete) {
  for (const sim::Time jitter : {0u, 100'000u}) {
    WorldConfig config;
    config.nprocs = 4;
    config.latency.jitter_ns = jitter;
    config.seed = jitter + 3;
    World world(config);
    const GlobalAddress x = world.alloc(0, 8, "x");
    for (Rank r = 1; r < 4; ++r) {
      world.spawn(r, [x](Process& p) -> sim::Task {
        for (int i = 0; i < 5; ++i) {
          co_await p.lock(x);
          const auto v = co_await p.get_value<std::uint64_t>(x);
          co_await p.put_value(x, v + 1);
          co_await p.unlock(x);
        }
      });
    }
    EXPECT_TRUE(world.run().completed) << "jitter " << jitter;
    std::uint64_t final_value = 0;
    const auto bytes = world.segment(0).read_bytes(x.offset, 8);
    std::memcpy(&final_value, bytes.data(), 8);
    EXPECT_EQ(final_value, 15u) << "jitter " << jitter;
  }
}

}  // namespace
}  // namespace dsmr::runtime
