// Schedule exploration: because the simulator is a pure function of
// (seed, perturbation), sweeping seeds — and, per seed, delay-bound
// perturbations — explores distinct legal interleavings of the same
// program. This example hunts a race that manifests only in *some*
// schedules, fans the grid out over a thread pool, reports the
// manifestation rate, and prints the (seed, perturbation) that reproduces
// it deterministically — the debugging loop the paper's §V.A envisions
// ("typically, about 10 processes").
//
//   ./explore_schedules [--ranks N] [--seeds N] [--workload histogram|random]
//                       [--threads N] [--perturbations K] [--perturb-max NS]
#include <cstdio>

#include "analysis/seed_sweep.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"
#include "workload/workloads.hpp"

using namespace dsmr;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const int ranks = cli.get_int("ranks", 4, 1);
  const auto seeds = cli.get_uint("seeds", 20, 1);
  const std::string workload = cli.get_choice("workload", "histogram", {"histogram", "random"});
  const int threads =
      cli.get_int("threads", util::ThreadPool::hardware_threads(), 1, util::kMaxThreads);
  const auto perturbations = cli.get_uint("perturbations", 2);
  const sim::Time perturb_max = cli.get_uint("perturb-max", 4'000);
  if (!cli.ok()) return 2;

  runtime::WorldConfig base;
  base.nprocs = ranks;

  analysis::WorkloadFn spawn;
  if (workload == "histogram") {
    spawn = [](runtime::World& world) {
      workload::HistogramConfig wl;
      wl.bins = 8;
      wl.increments_per_rank = 6;  // light contention: races are schedule-luck.
      workload::spawn_histogram(world, wl);
    };
  } else {
    spawn = [](runtime::World& world) {
      workload::RandomConfig wl;
      wl.areas = 6;
      wl.ops_per_proc = 10;
      wl.write_fraction = 0.4;
      workload::spawn_random(world, wl);
    };
  }

  analysis::SweepOptions options;
  options.threads = threads;
  options.perturbations = sim::perturb_variants(0, perturb_max, perturbations);

  const auto summary = analysis::seed_sweep(base, 1, seeds, spawn, options);

  std::printf("--- schedule exploration: %s on %d ranks, %llu seeds x %zu variants, "
              "%d thread(s) ---\n",
              workload.c_str(), ranks, static_cast<unsigned long long>(seeds),
              options.perturbations.size(), threads);
  std::printf("%s\n\n", summary.render().c_str());
  std::printf("%-6s %-18s %-10s %-10s %-10s %-10s\n", "seed", "perturb", "completed",
              "reports", "true", "precision");
  for (const auto& outcome : summary.outcomes) {
    std::printf("%-6llu %-18s %-10s %-10llu %-10llu %-10.2f\n",
                static_cast<unsigned long long>(outcome.seed),
                outcome.perturb.to_string().c_str(),
                outcome.completed ? "yes" : "NO",
                static_cast<unsigned long long>(outcome.races_reported),
                static_cast<unsigned long long>(outcome.truth_pairs),
                outcome.precision);
  }
  if (summary.first_racy_seed.has_value()) {
    std::printf("\nreproduce deterministically: re-run this workload with seed=%llu "
                "perturb=%s\n",
                static_cast<unsigned long long>(*summary.first_racy_seed),
                summary.first_racy_perturb.to_string().c_str());
  } else {
    std::printf("\nno schedule manifested a race — increase --seeds, --perturbations, "
                "or contention\n");
  }
  return 0;
}
