// 1-D Jacobi stencil with one-sided halo exchange — the classic PGAS
// workload the paper's model targets. Each rank owns a block of cells and
// *puts* its boundary values directly into its neighbours' public halo
// areas; barriers separate the exchange and compute phases.
//
// With --buggy the barriers are dropped: the halo puts race with the
// neighbours' reads, the detector pinpoints exactly the halo areas, and the
// numeric result degrades.
//
//   ./stencil [--ranks N] [--cells N] [--iters N] [--buggy]
#include <cmath>
#include <cstdio>
#include <cstring>

#include "runtime/world.hpp"
#include "util/cli.hpp"
#include "workload/workloads.hpp"

using namespace dsmr;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const int ranks = cli.get_int("ranks", 4, 1);
  const int cells = cli.get_int("cells", 16, 2);
  const int iters = cli.get_int("iters", 8, 0);
  const bool buggy = cli.get_flag("buggy");
  if (!cli.ok()) return 2;

  runtime::WorldConfig world_config;
  world_config.nprocs = ranks;
  world_config.print_races = true;
  runtime::World world(world_config);

  workload::StencilConfig config;
  config.cells_per_rank = cells;
  config.iters = iters;
  config.buggy = buggy;
  const auto handles = workload::spawn_stencil(world, config);

  const auto report = world.run();
  const auto reference = workload::stencil_reference(ranks, config);

  // Compare the distributed result against the sequential reference.
  double max_error = 0.0;
  for (Rank r = 0; r < ranks; ++r) {
    const auto bytes = world.segment(r).read_bytes(
        handles.results[static_cast<std::size_t>(r)].offset,
        static_cast<std::uint32_t>(cells * sizeof(double)));
    for (int i = 0; i < cells; ++i) {
      double v;
      std::memcpy(&v, bytes.data() + i * sizeof(double), sizeof(double));
      const double expected = reference[static_cast<std::size_t>(r * cells + i)];
      max_error = std::max(max_error, std::fabs(v - expected));
    }
  }

  std::printf("\n--- stencil summary (%s) ---\n", buggy ? "buggy: no barriers" : "correct");
  std::printf("ranks x cells:   %d x %d, %d iterations\n", ranks, cells, iters);
  std::printf("completed:       %s at t=%llu ns\n", report.completed ? "yes" : "NO",
              static_cast<unsigned long long>(report.end_time));
  std::printf("race reports:    %llu\n", static_cast<unsigned long long>(report.race_count));
  std::printf("max |error|:     %g %s\n", max_error,
              buggy ? "(stale halos corrupt the result)" : "(matches sequential reference)");
  std::printf("wire traffic:    %llu messages, %llu bytes\n",
              static_cast<unsigned long long>(world.traffic().total_messages),
              static_cast<unsigned long long>(world.traffic().total_bytes));
  return 0;
}
