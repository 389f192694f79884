// EXPERIMENTS: CLAIM-IV.C — "the size of the vector clocks must be at
// least n [Charron-Bost]. As a consequence, the size of the clocks cannot
// be reduced."
//
// The ablation: recompute ground truth with clocks truncated to k < n
// components. Projection preserves domination, so truncation produces only
// false negatives; the table shows how many genuine races become invisible
// at each width — empirically, full width n is required to see them all.
#include <benchmark/benchmark.h>

#include "analysis/ground_truth.hpp"
#include "bench_common.hpp"
#include "util/assert.hpp"
#include "workload/workloads.hpp"

namespace dsmr::bench {
namespace {

using runtime::World;

struct SweepResult {
  std::uint64_t truth = 0;
  std::vector<analysis::TruncationPoint> points;
};

SweepResult run_sweep(int nprocs, std::uint64_t seed) {
  auto config = world_config(nprocs, core::DetectorMode::kDualClock,
                             core::Transport::kHomeSide, seed);
  World world(config);
  world.record();
  workload::RandomConfig wl;
  wl.areas = std::max(2, nprocs / 2);
  wl.ops_per_proc = 30;
  wl.write_fraction = 0.7;
  wl.seed = seed * 131;
  workload::spawn_random(world, wl);
  DSMR_CHECK(world.run().completed);
  SweepResult result;
  result.truth = analysis::compute_ground_truth(world.log()).pairs.size();
  result.points =
      analysis::truncation_sweep(world.log(), static_cast<std::size_t>(nprocs));
  return result;
}

void BM_TruncationSweep(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto result = run_sweep(nprocs, 42);
    benchmark::DoNotOptimize(result.points.data());
  }
}
BENCHMARK(BM_TruncationSweep)->Arg(4)->Arg(8)->Arg(16)->ArgName("n");

void print_summary() {
  for (const int nprocs : {4, 8, 16}) {
    // Aggregate over several seeds so the trend is not one schedule's luck.
    std::vector<std::uint64_t> detected(static_cast<std::size_t>(nprocs), 0);
    std::uint64_t truth_total = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const auto result = run_sweep(nprocs, seed);
      truth_total += result.truth;
      for (std::size_t k = 0; k < result.points.size(); ++k) {
        detected[k] += result.points[k].detected;
      }
    }
    util::Table table({"clock width k", "races detected", "missed", "detection rate",
                       "wire B/clock"});
    for (std::size_t k = 0; k < detected.size(); ++k) {
      // The wire cost a width-k clock would pay under the compact encoding
      // (zero-history lower bound: one varint per component).
      const auto wire_bytes = clocks::VectorClock(k + 1).wire_size();
      table.add_row({util::Table::fmt_int(k + 1), util::Table::fmt_int(detected[k]),
                     util::Table::fmt_int(truth_total - detected[k]),
                     util::Table::fmt(truth_total == 0
                                          ? 1.0
                                          : static_cast<double>(detected[k]) /
                                                static_cast<double>(truth_total),
                                      3),
                     util::Table::fmt_int(wire_bytes)});
      json_add("truncation_sweep",
               {{"n", std::to_string(nprocs)}, {"k", std::to_string(k + 1)}},
               static_cast<double>(detected[k]), static_cast<double>(wire_bytes));
    }
    print_table("=== CLAIM-IV.C: races visible with width-k clocks (n=" +
                    std::to_string(nprocs) + ", 5 seeds) ===",
                table);
  }
}

}  // namespace
}  // namespace dsmr::bench

int main(int argc, char** argv) {
  dsmr::bench::init_json(&argc, argv, "clock_size");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dsmr::bench::print_summary();
  dsmr::bench::write_json();
  return 0;
}
