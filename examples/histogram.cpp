// Distributed histogram: bins spread block-wise over all ranks' public
// memories (a SharedArray), every rank performing remote read-modify-write
// increments on random bins.
//
// Unsynchronized RMW is the textbook data race: the detector reports it and
// increments get lost. With --locked each increment holds the bin's NIC
// area lock — clean reports and an exact total.
//
//   ./histogram [--ranks N] [--bins N] [--increments N] [--locked] [--seed S]
#include <cstdio>

#include "runtime/world.hpp"
#include "util/cli.hpp"
#include "workload/workloads.hpp"

using namespace dsmr;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const int ranks = cli.get_int("ranks", 4, 1);
  const int bins = cli.get_int("bins", 8, 1);
  const int increments = cli.get_int("increments", 32, 0);
  const bool locked = cli.get_flag("locked");
  const auto seed = cli.get_uint("seed", 3);
  if (!cli.ok()) return 2;

  runtime::WorldConfig world_config;
  world_config.nprocs = ranks;
  world_config.seed = seed;
  world_config.print_races = true;
  runtime::World world(world_config);

  workload::HistogramConfig config;
  config.bins = bins;
  config.increments_per_rank = increments;
  config.locked = locked;
  config.seed = seed;
  const auto handles = workload::spawn_histogram(world, config);

  const auto report = world.run();
  const auto total = workload::histogram_total(world, handles);
  const auto expected = static_cast<std::uint64_t>(ranks) * static_cast<std::uint64_t>(increments);

  std::printf("\n--- histogram summary (%s) ---\n", locked ? "locked" : "unsynchronized");
  std::printf("completed:     %s\n", report.completed ? "yes" : "NO");
  std::printf("race reports:  %llu\n", static_cast<unsigned long long>(report.race_count));
  std::printf("total counts:  %llu / %llu %s\n", static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(expected),
              total == expected ? "(no lost updates)" : "(updates LOST to the race)");
  std::printf("lock waits:    acquisitions=%llu contended=%llu\n",
              static_cast<unsigned long long>(world.nic(0).locks().stats().acquisitions),
              static_cast<unsigned long long>(world.nic(0).locks().stats().contended));
  return 0;
}
