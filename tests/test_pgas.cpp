// Tests for the PGAS layer: distributions, shared arrays, collectives, and
// the §V.B one-sided reduction.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "pgas/collectives.hpp"
#include "pgas/distribution.hpp"
#include "pgas/shared_array.hpp"
#include "runtime/process.hpp"
#include "runtime/world.hpp"

namespace dsmr::pgas {
namespace {

using runtime::Process;
using runtime::World;
using runtime::WorldConfig;

WorldConfig config_for(int nprocs) {
  WorldConfig config;
  config.nprocs = nprocs;
  return config;
}

// --- distributions ---------------------------------------------------------

TEST(Distribution, BlockPlacement) {
  // 10 elements over 4 ranks: per_rank = 3 → [0,3)->0, [3,6)->1, ...
  EXPECT_EQ(place(Distribution::kBlock, 0, 10, 4).owner, 0);
  EXPECT_EQ(place(Distribution::kBlock, 2, 10, 4).owner, 0);
  EXPECT_EQ(place(Distribution::kBlock, 3, 10, 4).owner, 1);
  EXPECT_EQ(place(Distribution::kBlock, 9, 10, 4).owner, 3);
  EXPECT_EQ(place(Distribution::kBlock, 4, 10, 4).local_index, 1u);
}

TEST(Distribution, CyclicPlacement) {
  EXPECT_EQ(place(Distribution::kCyclic, 0, 10, 4).owner, 0);
  EXPECT_EQ(place(Distribution::kCyclic, 5, 10, 4).owner, 1);
  EXPECT_EQ(place(Distribution::kCyclic, 5, 10, 4).local_index, 1u);
  EXPECT_EQ(place(Distribution::kCyclic, 9, 10, 4).owner, 1);
}

TEST(Distribution, LocalCountsSumToTotal) {
  for (const auto dist : {Distribution::kBlock, Distribution::kCyclic}) {
    for (int n : {1, 3, 4, 7}) {
      for (std::size_t count : {1u, 5u, 16u, 33u}) {
        std::size_t total = 0;
        for (Rank r = 0; r < n; ++r) total += local_count(dist, r, count, n);
        EXPECT_EQ(total, count) << "dist/" << n << "/" << count;
      }
    }
  }
}

TEST(Distribution, PlacementConsistentWithLocalCount) {
  for (const auto dist : {Distribution::kBlock, Distribution::kCyclic}) {
    const std::size_t count = 23;
    const int n = 5;
    std::vector<std::size_t> seen(static_cast<std::size_t>(n), 0);
    for (std::size_t i = 0; i < count; ++i) {
      const auto p = place(dist, i, count, n);
      EXPECT_LT(p.local_index, local_count(dist, p.owner, count, n));
      ++seen[static_cast<std::size_t>(p.owner)];
    }
    for (Rank r = 0; r < n; ++r) {
      EXPECT_EQ(seen[static_cast<std::size_t>(r)], local_count(dist, r, count, n));
    }
  }
}

// --- shared arrays ----------------------------------------------------------

TEST(SharedArray, ReadWriteAcrossRanks) {
  World world(config_for(3));
  auto array = SharedArray<std::uint64_t>::allocate(world, 9, Distribution::kBlock);
  world.spawn(0, [array](Process& p) -> sim::Task {
    for (std::size_t i = 0; i < array.size(); ++i) {
      co_await array.write(p, i, i * 10);
    }
    for (std::size_t i = 0; i < array.size(); ++i) {
      EXPECT_EQ(co_await array.read(p, i), i * 10);
    }
  });
  EXPECT_TRUE(world.run().completed);
  EXPECT_EQ(world.races().count(), 0u);  // single accessor.
}

TEST(SharedArray, ElementsLandOnTheirOwners) {
  World world(config_for(4));
  auto array = SharedArray<std::uint32_t>::allocate(world, 8, Distribution::kCyclic);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(array.owner(i), static_cast<Rank>(i % 4));
    EXPECT_EQ(array.address(i).rank, static_cast<Rank>(i % 4));
  }
}

TEST(SharedArray, ChunkGranularityControlsAreaCount) {
  // chunk=1: one registered area (one clock pair, one lock) per element;
  // chunk=4: a quarter of the metadata.
  World fine_world(config_for(2));
  auto fine = SharedArray<std::uint64_t>::allocate(fine_world, 16, Distribution::kBlock, 1);
  World coarse_world(config_for(2));
  auto coarse =
      SharedArray<std::uint64_t>::allocate(coarse_world, 16, Distribution::kBlock, 4);
  (void)fine;
  (void)coarse;
  const auto fine_areas =
      fine_world.segment(0).area_count() + fine_world.segment(1).area_count();
  const auto coarse_areas =
      coarse_world.segment(0).area_count() + coarse_world.segment(1).area_count();
  EXPECT_EQ(fine_areas, 16u);
  EXPECT_EQ(coarse_areas, 4u);
  EXPECT_EQ(fine_world.total_clock_bytes(), 4u * coarse_world.total_clock_bytes());
}

TEST(SharedArray, ChunkAddressIsTheLockableArea) {
  World world(config_for(2));
  auto array = SharedArray<std::uint64_t>::allocate(world, 8, Distribution::kBlock, 4);
  // Elements 0..3 share rank 0's single chunk.
  EXPECT_EQ(array.chunk_address(0), array.chunk_address(3));
  EXPECT_NE(array.chunk_address(0), array.chunk_address(4));
}

TEST(SharedArray, FalseSharingAtCoarseGranularity) {
  // Two ranks write *different* elements that share one chunk: the detector
  // sees one area and reports a race — the detection analogue of false
  // sharing. At element granularity the same program is clean.
  for (const std::size_t chunk : {4u, 1u}) {
    World world(config_for(3));
    auto array =
        SharedArray<std::uint64_t>::allocate(world, 4, Distribution::kBlock, chunk);
    // All 4 elements live on rank 0 (block, 4 elems over 3 ranks → 2 per
    // rank... ensure same rank by using indices 0 and 1).
    ASSERT_EQ(array.owner(0), array.owner(1));
    world.spawn(1, [array](Process& p) -> sim::Task {
      co_await array.write(p, 0, 111);
    });
    world.spawn(2, [array](Process& p) -> sim::Task {
      co_await p.sleep(20'000);
      co_await array.write(p, 1, 222);
    });
    EXPECT_TRUE(world.run().completed);
    if (chunk == 4u) {
      EXPECT_GE(world.races().count(), 1u) << "coarse chunks should false-share";
    } else {
      EXPECT_EQ(world.races().count(), 0u) << "element granularity is precise";
    }
  }
}

// --- collectives -------------------------------------------------------------

TEST(Collectives, BarrierSeparatesPhases) {
  // Conflicting accesses on opposite sides of a barrier never race.
  World world(config_for(4));
  const auto x = world.alloc(0, 8, "x");
  for (Rank r = 0; r < 4; ++r) {
    world.spawn(r, [x, r](Process& p) -> sim::Task {
      pgas::Team team(p);
      if (r == 1) co_await p.put_value(x, std::uint64_t{1});
      co_await team.barrier();
      if (r == 2) co_await p.put_value(x, std::uint64_t{2});
      co_await team.barrier();
      if (r == 3) co_await p.get(x, 8);
    });
  }
  EXPECT_TRUE(world.run().completed);
  EXPECT_EQ(world.races().count(), 0u);
}

TEST(Collectives, BarrierIsActuallySynchronizing) {
  // No rank may pass the barrier before every rank arrived.
  World world(config_for(5));
  std::vector<sim::Time> arrive(5), depart(5);
  for (Rank r = 0; r < 5; ++r) {
    world.spawn(r, [r, &arrive, &depart](Process& p) -> sim::Task {
      pgas::Team team(p);
      co_await p.compute(static_cast<sim::Time>(r) * 50'000);  // stagger.
      arrive[static_cast<std::size_t>(r)] = p.now();
      co_await team.barrier();
      depart[static_cast<std::size_t>(r)] = p.now();
    });
  }
  EXPECT_TRUE(world.run().completed);
  const sim::Time last_arrival = *std::max_element(arrive.begin(), arrive.end());
  for (Rank r = 0; r < 5; ++r) {
    EXPECT_GE(depart[static_cast<std::size_t>(r)], last_arrival);
  }
}

TEST(Collectives, BroadcastDeliversToAll) {
  for (int n : {2, 3, 4, 7}) {
    World world(config_for(n));
    std::vector<std::uint64_t> received(static_cast<std::size_t>(n), 0);
    for (Rank r = 0; r < n; ++r) {
      world.spawn(r, [r, &received](Process& p) -> sim::Task {
        pgas::Team team(p);
        const std::uint64_t value = p.rank() == 1 ? 4242 : 0;
        received[static_cast<std::size_t>(r)] =
            co_await team.broadcast_value<std::uint64_t>(1, value);
      });
    }
    EXPECT_TRUE(world.run().completed) << "n=" << n;
    for (const auto v : received) EXPECT_EQ(v, 4242u) << "n=" << n;
  }
}

TEST(Collectives, AllreduceSums) {
  for (int n : {2, 4, 5, 8}) {
    World world(config_for(n));
    std::vector<std::uint64_t> results(static_cast<std::size_t>(n), 0);
    for (Rank r = 0; r < n; ++r) {
      world.spawn(r, [r, &results](Process& p) -> sim::Task {
        pgas::Team team(p);
        const auto mine = static_cast<std::uint64_t>(p.rank() + 1);
        results[static_cast<std::size_t>(r)] = co_await team.allreduce(
            mine, [](std::uint64_t a, std::uint64_t b) { return a + b; });
      });
    }
    EXPECT_TRUE(world.run().completed) << "n=" << n;
    const auto expected = static_cast<std::uint64_t>(n) * (static_cast<std::uint64_t>(n) + 1) / 2;
    for (const auto v : results) EXPECT_EQ(v, expected) << "n=" << n;
  }
}

TEST(Collectives, SuccessiveBarriersDoNotCrossTalk) {
  World world(config_for(3));
  for (Rank r = 0; r < 3; ++r) {
    world.spawn(r, [](Process& p) -> sim::Task {
      pgas::Team team(p);
      for (int i = 0; i < 10; ++i) co_await team.barrier();
    });
  }
  EXPECT_TRUE(world.run().completed);
}

TEST(Collectives, BarrierTagsLeaveNoSignalTableEntries) {
  // Collective tags are unique per epoch and round: once a 200-barrier run
  // quiesces, no NIC may still hold an (empty) queue for any of them.
  World world(config_for(4));
  for (Rank r = 0; r < 4; ++r) {
    world.spawn(r, [](Process& p) -> sim::Task {
      pgas::Team team(p);
      for (int i = 0; i < 200; ++i) co_await team.barrier();
    });
  }
  EXPECT_TRUE(world.run().completed);
  for (Rank r = 0; r < 4; ++r) EXPECT_EQ(world.nic(r).signal_tags(), 0u) << "rank " << r;
}

// --- one-sided reduction (§V.B) ---------------------------------------------

TEST(OneSidedReduce, RootReducesWithoutParticipation) {
  // Every rank publishes a value in its public memory; rank 0 reduces them
  // all with remote gets while the others do nothing at all.
  World world(config_for(4));
  std::vector<mem::GlobalAddress> cells;
  for (Rank r = 0; r < 4; ++r) cells.push_back(world.alloc(r, 8, "cell"));

  std::uint64_t sum = 0;
  world.spawn(0, [cells, &sum](Process& p) -> sim::Task {
    co_await p.put_value(cells[0], std::uint64_t{1});
    // Give the other ranks time to publish (they do not participate in the
    // reduction itself — that is the §V.B point).
    co_await p.compute(200'000);
    sum = co_await onesided_reduce(
        p, cells, std::uint64_t{0},
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
  });
  for (Rank r = 1; r < 4; ++r) {
    world.spawn(r, [cells, r](Process& p) -> sim::Task {
      co_await p.put_value(cells[static_cast<std::size_t>(r)],
                           static_cast<std::uint64_t>(r + 1));
      // No further action: the target of a one-sided reduction is passive.
    });
  }
  EXPECT_TRUE(world.run().completed);
  EXPECT_EQ(sum, 1u + 2u + 3u + 4u);
  // The reduction is read-only: reads vs the publishing writes are ordered
  // or racy depending on timing; with the compute() delay they are ordered
  // in *time* but unordered causally — exactly the race the model warns
  // about for non-collective global operations. Reads of the OTHER ranks'
  // cells race with their writes (write then read, unsynchronized).
  // We only require the detector not to crash and the sum to be right;
  // the report count is asserted in the analysis tests.
}

TEST(OneSidedReduce, CollectiveCounterpartIsRaceFreeAndSlower) {
  // The collective allreduce synchronizes; the one-sided version trades
  // synchronization for possible races. Compare traffic.
  World world(config_for(4));
  for (Rank r = 0; r < 4; ++r) {
    world.spawn(r, [](Process& p) -> sim::Task {
      pgas::Team team(p);
      co_await team.allreduce(std::uint64_t{1},
                              [](std::uint64_t a, std::uint64_t b) { return a + b; });
    });
  }
  EXPECT_TRUE(world.run().completed);
  EXPECT_EQ(world.races().count(), 0u);
}


TEST(Collectives, GatherCollectsInRankOrder) {
  for (int n : {2, 4, 5}) {
    for (Rank root : {0, n - 1}) {
      World world(config_for(n));
      std::vector<std::vector<std::uint64_t>> results(static_cast<std::size_t>(n));
      for (Rank r = 0; r < n; ++r) {
        world.spawn(r, [r, root, &results](Process& p) -> sim::Task {
          pgas::Team team(p);
          results[static_cast<std::size_t>(r)] = co_await team.gather_value<std::uint64_t>(
              root, static_cast<std::uint64_t>(p.rank()) * 7);
        });
      }
      EXPECT_TRUE(world.run().completed) << "n=" << n << " root=" << root;
      for (Rank r = 0; r < n; ++r) {
        if (r == root) {
          ASSERT_EQ(results[static_cast<std::size_t>(r)].size(),
                    static_cast<std::size_t>(n));
          for (Rank s = 0; s < n; ++s) {
            EXPECT_EQ(results[static_cast<std::size_t>(r)][static_cast<std::size_t>(s)],
                      static_cast<std::uint64_t>(s) * 7);
          }
        } else {
          EXPECT_TRUE(results[static_cast<std::size_t>(r)].empty());
        }
      }
    }
  }
}

TEST(Collectives, ScatterDistributesSlices) {
  const int n = 4;
  World world(config_for(n));
  std::vector<std::uint64_t> received(static_cast<std::size_t>(n), 0);
  for (Rank r = 0; r < n; ++r) {
    world.spawn(r, [r, &received](Process& p) -> sim::Task {
      pgas::Team team(p);
      std::vector<std::uint64_t> slices;
      if (p.rank() == 1) {
        for (int i = 0; i < p.nprocs(); ++i) {
          slices.push_back(static_cast<std::uint64_t>(i) + 100);
        }
      } else {
        slices.resize(static_cast<std::size_t>(p.nprocs()));
      }
      received[static_cast<std::size_t>(r)] =
          co_await team.scatter_value<std::uint64_t>(1, slices);
    });
  }
  EXPECT_TRUE(world.run().completed);
  for (Rank r = 0; r < n; ++r) {
    EXPECT_EQ(received[static_cast<std::size_t>(r)],
              static_cast<std::uint64_t>(r) + 100);
  }
}

TEST(Collectives, GatherThenScatterRoundTrip) {
  const int n = 3;
  World world(config_for(n));
  std::vector<std::uint64_t> out(static_cast<std::size_t>(n), 0);
  for (Rank r = 0; r < n; ++r) {
    world.spawn(r, [r, &out](Process& p) -> sim::Task {
      pgas::Team team(p);
      auto gathered = co_await team.gather_value<std::uint64_t>(
          0, static_cast<std::uint64_t>(p.rank() + 1));
      std::vector<std::uint64_t> doubled;
      if (p.rank() == 0) {
        for (auto v : gathered) doubled.push_back(v * 2);
      } else {
        doubled.resize(static_cast<std::size_t>(p.nprocs()));
      }
      out[static_cast<std::size_t>(r)] =
          co_await team.scatter_value<std::uint64_t>(0, doubled);
    });
  }
  EXPECT_TRUE(world.run().completed);
  for (Rank r = 0; r < n; ++r) {
    EXPECT_EQ(out[static_cast<std::size_t>(r)], 2u * (static_cast<std::uint64_t>(r) + 1));
  }
}

}  // namespace
}  // namespace dsmr::pgas
