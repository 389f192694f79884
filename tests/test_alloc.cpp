// Allocation pin for the simulator's protocol path.
//
// This executable replaces the global operator new/delete with counting
// forwards to malloc/free (the replacement is per executable, so no other
// suite sees it) and runs the dsmr_bench sim_sweep world shape — 8 ranks,
// dual clock, the 6 scenarios x 3 transports — counting heap allocations
// made inside World::run. Coroutine frames, future states and clock
// buffers recycle through the block pool (util/block_pool.hpp), and the
// NIC's lock, pending and signal tables are flat vectors that stop growing,
// so what is left per engine event is mostly user payload vectors. The
// event and race totals pin that the schedule itself did not move.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "runtime/world.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace {

bool g_counting = false;
std::uint64_t g_allocations = 0;

void* counted_malloc(std::size_t bytes) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t bytes) { return counted_malloc(bytes); }
void* operator new[](std::size_t bytes) { return counted_malloc(bytes); }
void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  if (g_counting) ++g_allocations;
  return std::malloc(bytes == 0 ? 1 : bytes);
}
void* operator new[](std::size_t bytes, const std::nothrow_t&) noexcept {
  if (g_counting) ++g_allocations;
  return std::malloc(bytes == 0 ? 1 : bytes);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace dsmr {
namespace {

constexpr int kRanks = 8;
constexpr int kScenarios = 6;
constexpr core::Transport kTransports[] = {core::Transport::kHomeSide, core::Transport::kSeparate,
                                           core::Transport::kPiggyback};

/// dsmr_bench's per-world seed (harness derive_seed of run seed 1).
std::uint64_t world_seed(std::uint64_t index) {
  util::SplitMix64 mix(1 * 0x9e3779b97f4a7c15ULL + 1000 + index);
  mix.next();
  return mix.next();
}

struct Totals {
  std::uint64_t allocations = 0;
  std::uint64_t events = 0;
  std::uint64_t races = 0;
};

/// One sim_sweep world: scenario index % 6, transport (index / 6) % 3.
void run_world(std::uint64_t index, Totals& totals) {
  const std::uint64_t seed = world_seed(index);
  runtime::WorldConfig config;
  config.nprocs = kRanks;
  config.seed = seed;
  config.mode = core::DetectorMode::kDualClock;
  config.transport = kTransports[(index / kScenarios) % 3];
  runtime::World world(config);
  switch (index % kScenarios) {
    case 0: {
      workload::RandomConfig random;
      random.areas = 32;
      random.ops_per_proc = 200;
      random.barrier_every = 20;
      random.lock_fraction = 0.1;
      random.seed = seed;
      workload::spawn_random(world, random);
      break;
    }
    case 1: {
      workload::StencilConfig stencil;
      stencil.cells_per_rank = 32;
      stencil.iters = 8;
      workload::spawn_stencil(world, stencil);
      break;
    }
    case 2:
    case 3: {
      workload::HistogramConfig histogram;
      histogram.bins = 16;
      histogram.increments_per_rank = 32;
      histogram.seed = seed;
      histogram.locked = index % kScenarios == 2;
      workload::spawn_histogram(world, histogram);
      break;
    }
    case 4: {
      workload::PipelineConfig pipeline;
      pipeline.tokens = 16;
      workload::spawn_pipeline(world, pipeline);
      break;
    }
    default: {
      workload::MasterWorkerConfig master;
      master.tasks_per_worker = 4;
      master.seed = seed;
      workload::spawn_master_worker(world, master);
      break;
    }
  }
  const std::uint64_t before = g_allocations;
  g_counting = true;
  const runtime::RunReport report = world.run();
  g_counting = false;
  ASSERT_TRUE(report.completed) << "world " << index << ": " << report.diagnostic;
  totals.allocations += g_allocations - before;
  totals.events += report.engine_events;
  totals.races += report.race_count;
}

TEST(SimAllocations, SimSweepRotationStaysUnderABoundPerEngineEvent) {
  Totals totals;
  for (std::uint64_t index = 0; index < 18; ++index) {
    run_world(index, totals);
    if (HasFatalFailure()) return;
  }
  // Recycling must not move one event: these are the totals of the
  // allocating implementation (1.74 allocations per event) on these seeds.
  EXPECT_EQ(totals.events, 102029u);
  EXPECT_EQ(totals.races, 1574u);
  const double per_event =
      static_cast<double>(totals.allocations) / static_cast<double>(totals.events);
  std::printf("allocations %llu over %llu engine events: %.3f per event\n",
              static_cast<unsigned long long>(totals.allocations),
              static_cast<unsigned long long>(totals.events), per_event);
  EXPECT_LE(per_event, 0.3);
}

}  // namespace
}  // namespace dsmr
