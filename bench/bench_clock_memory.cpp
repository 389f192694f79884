// EXPERIMENTS: CLAIM-V.A1 (storage overhead) and the granularity ablation.
//
// "a clock must be used for each shared piece of data. As a consequence,
// our algorithm has an overhead on data storage space" — and the dual-clock
// refinement "doubles the necessary amount of memory" (§IV.D).
//
// Measured: bytes of clock metadata as a function of process count and of
// the number of registered areas, plus the SharedArray chunk-granularity
// trade-off (metadata bytes vs detection precision).
#include <benchmark/benchmark.h>

#include <string>
#include <utility>

#include "bench_common.hpp"
#include "pgas/shared_array.hpp"
#include "util/assert.hpp"

namespace dsmr::bench {
namespace {

using runtime::Process;
using runtime::World;

std::size_t metadata_bytes(int nprocs, int areas) {
  World world(world_config(nprocs, core::DetectorMode::kDualClock,
                           core::Transport::kHomeSide));
  for (int a = 0; a < areas; ++a) {
    std::string name = "a";  // appended: GCC 12 misreports "a" + ... under -Wrestrict.
    name += std::to_string(a);
    world.alloc(static_cast<Rank>(a % nprocs), 8, std::move(name));
  }
  return world.total_clock_bytes();
}

void BM_MetadataFootprint(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  const int areas = static_cast<int>(state.range(1));
  std::size_t bytes = 0;
  for (auto _ : state) {
    bytes = metadata_bytes(nprocs, areas);
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["clock_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_MetadataFootprint)
    ->ArgsProduct({{2, 8, 32}, {16, 256}})
    ->ArgNames({"n", "areas"});

/// Granularity ablation: same 64-element array, different chunk sizes; two
/// writers touch *different* elements of the same chunk — coarse chunks
/// false-share, fine chunks pay more metadata.
struct GranularityPoint {
  std::size_t chunk;
  std::size_t clock_bytes;
  std::uint64_t false_reports;
};

GranularityPoint measure_granularity(std::size_t chunk) {
  World world(world_config(3, core::DetectorMode::kDualClock, core::Transport::kHomeSide));
  auto array = pgas::SharedArray<std::uint64_t>::allocate(world, 64,
                                                          pgas::Distribution::kBlock,
                                                          chunk, "g");
  // Ranks 1 and 2 write disjoint even/odd elements of rank 0's block: a
  // correct program; any report is a granularity artifact.
  world.spawn(1, [array](Process& p) -> sim::Task {
    for (std::size_t i = 0; i < 16; i += 2) co_await array.write(p, i, 1);
  });
  world.spawn(2, [array](Process& p) -> sim::Task {
    for (std::size_t i = 1; i < 16; i += 2) co_await array.write(p, i, 2);
  });
  DSMR_CHECK(world.run().completed);
  return {chunk, world.total_clock_bytes(), world.races().count()};
}

void print_summary() {
  {
    util::Table table({"n procs", "areas", "clock bytes", "per area",
                       "fixed model (2*8*n)", "saving"});
    for (const int n : {2, 4, 8, 16, 32}) {
      for (const int areas : {16, 64, 256}) {
        const auto bytes = metadata_bytes(n, areas);
        const auto fixed =
            2u * sizeof(ClockValue) * static_cast<std::uint64_t>(n) *
            static_cast<std::uint64_t>(areas);
        table.add_row({util::Table::fmt_int(static_cast<std::uint64_t>(n)),
                       util::Table::fmt_int(static_cast<std::uint64_t>(areas)),
                       util::Table::fmt_int(bytes),
                       util::Table::fmt_int(bytes / static_cast<std::size_t>(areas)),
                       util::Table::fmt_int(2u * sizeof(ClockValue) *
                                            static_cast<std::uint64_t>(n)),
                       util::Table::fmt(static_cast<double>(fixed) /
                                            static_cast<double>(bytes),
                                        1)});
        json_add("metadata_footprint",
                 {{"n", std::to_string(n)}, {"areas", std::to_string(areas)},
                  {"mode", "dual-clock"}},
                 0.0, static_cast<double>(bytes));
      }
    }
    print_table(
        "=== CLAIM-V.A1: clock storage per area (compact/epoch accounting) ===\n"
        "(vs the paper's fixed 2 clocks x n entries x 8 bytes model)",
        table);
  }
  {
    util::Table table({"chunk elems", "areas", "clock bytes", "false reports",
                       "verdict"});
    for (const std::size_t chunk : {1u, 2u, 4u, 8u, 16u}) {
      const auto point = measure_granularity(chunk);
      table.add_row(
          {util::Table::fmt_int(point.chunk),
           util::Table::fmt_int(64u / point.chunk + (64u % point.chunk ? 1 : 0)),
           util::Table::fmt_int(point.clock_bytes),
           util::Table::fmt_int(point.false_reports),
           point.false_reports == 0 ? "precise" : "false sharing"});
      json_add("granularity_ablation", {{"chunk", std::to_string(point.chunk)}},
               static_cast<double>(point.false_reports),
               static_cast<double>(point.clock_bytes));
    }
    print_table(
        "=== Granularity ablation: metadata vs detection precision ===\n"
        "(disjoint writers; any report is an artifact of coarse areas)",
        table);
  }
}

}  // namespace
}  // namespace dsmr::bench

int main(int argc, char** argv) {
  dsmr::bench::init_json(&argc, argv, "clock_memory");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dsmr::bench::print_summary();
  dsmr::bench::write_json();
  return 0;
}
