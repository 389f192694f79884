// Schedule exploration: because the simulator is a pure function of
// (seed, perturbation), sweeping seeds — and, per seed, delay-bound
// perturbations — explores distinct legal interleavings of the same
// program. This example hunts a race that manifests only in *some*
// schedules: it declares the workload a `sometimes` conformance scenario,
// runs the grid through analysis::run_conformance (one World per schedule
// on a thread pool, every run cross-checked against the oracles), reports
// the manifestation rate, and prints the (seed, perturbation) that
// reproduces it deterministically — the debugging loop the paper's §V.A
// envisions ("typically, about 10 processes").
//
//   ./explore_schedules [--ranks N] [--seeds N] [--workload histogram|random]
//                       [--threads N] [--perturbations K] [--perturb-max NS]
//
// Exits 1 when a schedule breaks a conformance invariant.
#include <cstdio>

#include "analysis/conformance.hpp"
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

  analysis::Scenario scenario;
  scenario.name = workload;
  scenario.expect = analysis::RaceExpectation::kSometimes;
  scenario.min_ranks = 1;  // both workloads run (race-free) on one rank.
  if (workload == "histogram") {
    scenario.spawn = [](runtime::World& world) {
      workload::HistogramConfig wl;
      wl.bins = 8;
      wl.increments_per_rank = 6;  // light contention: races are schedule-luck.
      workload::spawn_histogram(world, wl);
    };
  } else {
    scenario.spawn = [](runtime::World& world) {
      workload::RandomConfig wl;
      wl.areas = 6;
      wl.ops_per_proc = 10;
      wl.write_fraction = 0.4;
      workload::spawn_random(world, wl);
    };
  }

  analysis::ConformanceOptions options;
  options.base.nprocs = ranks;
  options.seeds = seeds;
  options.threads = threads;
  options.perturbations = sim::perturb_variants(0, perturb_max, perturbations);

  const auto report = analysis::run_conformance(scenario, options);

  std::printf("--- schedule exploration: %s on %d ranks, %llu seeds x %zu variants, "
              "%d thread(s) ---\n",
              workload.c_str(), ranks, static_cast<unsigned long long>(seeds),
              options.perturbations.size(), threads);
  std::printf("%s\n\n", report.render().c_str());
  std::printf("%-6s %-18s %-10s %-10s %-10s %-10s\n", "seed", "perturb", "completed",
              "reports", "true", "checks");
  const analysis::RunVerdicts* first_racy = nullptr;
  for (const auto& run : report.runs) {
    if (first_racy == nullptr && run.live_reports > 0) first_racy = &run;
    std::printf("%-6llu %-18s %-10s %-10llu %-10llu %-10s\n",
                static_cast<unsigned long long>(run.seed), run.perturb.to_string().c_str(),
                run.completed ? "yes" : "NO",
                static_cast<unsigned long long>(run.live_reports),
                static_cast<unsigned long long>(run.truth_pairs),
                run.failed_checks.empty() ? "ok" : "FAILED");
  }
  if (first_racy != nullptr) {
    std::printf("\nreproduce deterministically: re-run this workload with seed=%llu "
                "perturb=%s\n",
                static_cast<unsigned long long>(first_racy->seed),
                first_racy->perturb.to_string().c_str());
  } else {
    std::printf("\nno schedule manifested a race — increase --seeds, --perturbations, "
                "or contention\n");
  }
  return report.passed() ? 0 : 1;
}
