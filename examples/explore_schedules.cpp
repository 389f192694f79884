// Schedule exploration: because the simulator is a pure function of
// (seed, perturbation), sweeping seeds — and, per seed, delay-bound
// perturbations — explores distinct legal interleavings of the same
// program. This example runs one `sometimes` conformance scenario on the
// grid through analysis::run_conformance (one World per schedule on a thread
// pool, every run cross-checked against the oracles), reports on how many
// schedules the detector flagged a race, and prints the (seed, perturbation)
// that reproduces a flagged schedule deterministically — the debugging loop
// the paper's §V.A envisions ("typically, about 10 processes").
//
// The default, stencil_sparse on 2 ranks (a halo exchange with a barrier
// only every second iteration), has a true race on every schedule, but the
// detector compares an access only against the latest stored ones (the
// recall gap the paper concedes), so whether it reports the race depends on
// the schedule: 56 of the 60 default schedules. The table's `reports` and
// `true` columns show which schedules hide it. The other scenarios
// (pipeline_window2, histogram, random, ...) are reported on every
// schedule at their conformance-grid sizes.
//
//   ./explore_schedules [--workload SCENARIO] [--ranks N] [--seeds N]
//                       [--threads N] [--perturbations K] [--perturb-max NS]
//
// Exits 1 when a schedule breaks a conformance invariant.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/conformance.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

using namespace dsmr;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  std::vector<std::string> sometimes;
  for (const analysis::Scenario& scenario : analysis::builtin_scenarios()) {
    if (scenario.expect == analysis::RaceExpectation::kSometimes) {
      sometimes.push_back(scenario.name);
    }
  }
  const std::string workload = cli.get_choice("workload", "stencil_sparse", sometimes);
  const int ranks = cli.get_int("ranks", 2, 1);
  const auto seeds = cli.get_uint("seeds", 20, 1);
  const int threads =
      cli.get_int("threads", util::ThreadPool::hardware_threads(), 1, util::kMaxThreads);
  const auto perturbations = cli.get_uint("perturbations", 2);
  const sim::Time perturb_max = cli.get_uint("perturb-max", 4'000);
  const analysis::Scenario& scenario = *analysis::find_scenario(workload);
  cli.check(ranks >= scenario.min_ranks, "--workload " + workload + " needs --ranks >= " +
                                             std::to_string(scenario.min_ranks));
  if (!cli.ok()) return 2;

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
  const analysis::RunVerdicts* first_hidden = nullptr;
  std::uint64_t hidden = 0;
  for (const auto& run : report.runs) {
    if (first_racy == nullptr && run.live_reports > 0) first_racy = &run;
    if (run.live_reports == 0 && run.truth_pairs > 0) {
      ++hidden;
      if (first_hidden == nullptr) first_hidden = &run;
    }
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
  if (first_hidden != nullptr) {
    std::printf("true race unreported on %llu schedule(s); first: seed=%llu perturb=%s\n",
                static_cast<unsigned long long>(hidden),
                static_cast<unsigned long long>(first_hidden->seed),
                first_hidden->perturb.to_string().c_str());
  }
  return report.passed() ? 0 : 1;
}
