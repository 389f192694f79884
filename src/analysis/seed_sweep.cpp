#include "analysis/seed_sweep.hpp"

#include <sstream>

#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace dsmr::analysis {

std::string SweepSummary::render() const {
  std::ostringstream out;
  out << outcomes.size() << " schedules: " << seeds_with_reports << " with reports ("
      << static_cast<int>(manifestation_rate() * 100.0) << "%), " << seeds_with_truth
      << " with true races, " << incomplete_runs << " deadlocked, min precision "
      << min_precision;
  if (races_per_schedule.count() > 0 && races_per_schedule.max() > 0) {
    out << ", reports/schedule mean " << races_per_schedule.mean() << " max "
        << static_cast<std::uint64_t>(races_per_schedule.max());
  }
  if (first_racy_seed.has_value()) {
    out << "; replay with seed " << *first_racy_seed << " perturb "
        << first_racy_perturb.to_string();
  }
  return out.str();
}

SeedOutcome run_schedule(const runtime::WorldConfig& base_config, std::uint64_t seed,
                         const sim::PerturbConfig& perturb, const WorkloadFn& workload) {
  runtime::WorldConfig config = base_config;
  config.seed = seed;
  config.perturb = perturb;
  runtime::World world(config);
  world.record();
  workload(world);
  const auto report = world.run();

  SeedOutcome outcome;
  outcome.seed = seed;
  outcome.perturb = perturb;
  outcome.completed = report.completed;
  outcome.races_reported = report.race_count;
  outcome.end_time = report.end_time;
  outcome.engine_events = report.engine_events;
  if (report.completed) {
    const auto truth = compute_ground_truth(world.log());
    outcome.truth_pairs = truth.pairs.size();
    const auto accuracy = evaluate(truth, world.races());
    outcome.precision = accuracy.precision();
    outcome.area_recall = accuracy.area_recall();
  }
  return outcome;
}

SweepSummary seed_sweep(const runtime::WorldConfig& base_config,
                        std::uint64_t first_seed, std::uint64_t count,
                        const WorkloadFn& workload, const SweepOptions& options) {
  DSMR_REQUIRE(count > 0, "seed sweep needs at least one seed");
  DSMR_REQUIRE(!options.perturbations.empty(),
               "seed sweep needs at least one perturbation variant");
  DSMR_REQUIRE(options.threads >= 1, "seed sweep needs at least one thread");

  const std::uint64_t variants = options.perturbations.size();
  const std::uint64_t total = count * variants;
  DSMR_REQUIRE(total / variants == count, "sweep size overflows: " << count << " seeds × "
                                                                   << variants
                                                                   << " variants");

  // Fan out: every (seed, perturbation) is one independent pure run writing
  // its pre-assigned slot; with threads == 1 this degenerates to the exact
  // serial loop (parallel_for runs inline).
  std::vector<SeedOutcome> outcomes(total);
  util::parallel_for(total, options.threads, [&](std::uint64_t index) {
    const std::uint64_t seed = first_seed + index / variants;
    const auto& perturb = options.perturbations[index % variants];
    outcomes[index] = run_schedule(base_config, seed, perturb, workload);
  });

  // Deterministic fold in schedule order, independent of completion order.
  SweepSummary summary;
  summary.outcomes = std::move(outcomes);
  for (const auto& outcome : summary.outcomes) {
    if (!outcome.completed) ++summary.incomplete_runs;
    if (outcome.truth_pairs > 0) ++summary.seeds_with_truth;
    if (outcome.races_reported > 0) {
      ++summary.seeds_with_reports;
      if (!summary.first_racy_seed.has_value()) {
        summary.first_racy_seed = outcome.seed;
        summary.first_racy_perturb = outcome.perturb;
      }
    }
    summary.min_precision = std::min(summary.min_precision, outcome.precision);
    summary.races_per_schedule.add(static_cast<double>(outcome.races_reported));
  }
  return summary;
}

SweepSummary seed_sweep(const runtime::WorldConfig& base_config,
                        std::uint64_t first_seed, std::uint64_t count,
                        const WorkloadFn& workload) {
  return seed_sweep(base_config, first_seed, count, workload, SweepOptions{});
}

}  // namespace dsmr::analysis
