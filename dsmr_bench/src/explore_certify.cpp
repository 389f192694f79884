// explore_certify: DPOR + sleep-set exploration of small generated programs,
// with one replay_fold per explored interleaving — the fold layer run as
// thousands of tiny logs rather than record_fold's one large log.
#include <optional>

#include "explore/dpor.hpp"
#include "fuzz/generate.hpp"
#include "fuzz/harness.hpp"
#include "workloads.hpp"

namespace dsmr::bench {
namespace {

fuzz::GenConfig program_config(std::uint64_t seed) {
  fuzz::GenConfig config;
  config.nprocs = 3;
  config.areas = 4;
  config.area_bytes = 8;
  config.phases = 3;
  config.max_ops_per_rank = 2;
  config.max_sync_edges = 1;
  config.collective_fraction = 0.0;
  config.seed = seed;
  if (fuzz::plant_for_seed(seed, 0.5)) {
    config.plant_bug = true;
    config.bug_kind =
        fuzz::kind_for_seed(seed, {fuzz::BugKind::kPartialBarrier, fuzz::BugKind::kAckWindow});
  }
  return config;
}

struct ProgramOutcome {
  double generate_ns = 0;
  double explore_ns = 0;  ///< 0 for a skipped (ineligible) program.
  double interleavings = 0;
  double transitions = 0;
  double sleep_blocked = 0;
  double pruned_branches = 0;
};

/// Explores program block `block`: programs [block * programs, (block+1) *
/// programs) of this seed's pool. Generation is the rep's set-up.
Rep explore_rep(Run& run, std::uint64_t programs, std::uint64_t block, core::DetectorMode mode,
                bool traced, std::uint64_t req, std::vector<ProgramOutcome>* outcomes) {
  Tracer* const tracer = traced ? run.tracer : nullptr;
  ScopedSpan rep_span(tracer, 0, "bench.rep", 0, req);
  std::vector<fuzz::Program> generated;
  std::vector<ProgramOutcome> out(programs);
  Rep rep;
  for (std::uint64_t i = 0; i < programs; ++i) {
    const std::uint64_t index = block * programs + i;
    ScopedSpan span(tracer, 0, "fuzz.generate", rep_span.id(), index);
    const fuzz::GenConfig config = program_config(derive_seed(run.seed, 5000 + index));
    generated.push_back(fuzz::generate_program(config));
    out[i].generate_ns = static_cast<double>(span.elapsed_ns());
    rep.setup_s += out[i].generate_ns / 1e9;
  }

  explore::ExploreOptions options;
  options.mode = mode;
  std::uint64_t skipped = 0;
  for (std::uint64_t i = 0; i < programs; ++i) {
    const std::uint64_t index = block * programs + i;
    const fuzz::Program& program = generated[i];
    if (!explore::exhaustive_eligible(program).eligible) {
      ++skipped;
      continue;
    }
    ScopedSpan span(tracer, 0, "explore.program", rep_span.id(), index);
    const explore::ExploreReport report = explore::explore_program(program, options);
    out[i].explore_ns = static_cast<double>(span.elapsed_ns());
    rep.wall_s += out[i].explore_ns / 1e9;
    out[i].interleavings = static_cast<double>(report.interleavings);
    out[i].transitions = static_cast<double>(report.transitions);
    out[i].sleep_blocked = static_cast<double>(report.sleep_blocked);
    out[i].pruned_branches = static_cast<double>(report.pruned_branches);
    const std::string where = "explore_certify: program " + std::to_string(index);
    run.check(report.complete, where + " exploration incomplete: " + report.limit);
    if (mode == core::DetectorMode::kDualClock) {
      const std::vector<std::string> failures = explore::check_exhaustive(program, report);
      run.check(failures.empty(), where + ": " + (failures.empty() ? "" : failures.front()));
    }
  }
  rep.work = static_cast<double>(programs - skipped);
  if (outcomes != nullptr) outcomes->insert(outcomes->end(), out.begin(), out.end());
  return rep;
}

}  // namespace

void explore_certify(Run& run) {
  // Program costs are heavy-tailed, so one block of programs is a noisy
  // sample of the generator: timed round k explores block k mod `blocks`
  // (both configs the same block), and the median over rounds is taken.
  const std::uint64_t programs = run.size("programs_per_block", 1000, 24);
  const std::uint64_t blocks = run.size("blocks", 12, 1);
  run.size("ranks", 3, 3);
  run.size("areas", 4, 4);
  run.size("phases", 3, 3);
  run.size("max_ops_per_rank", 2, 2);
  run.size("max_sync_edges", 1, 1);
  std::uint64_t req = 0;
  std::vector<std::uint64_t> timed_reps(2, 0);
  const auto block_of = [&](int config, bool timed) {
    return timed ? timed_reps[static_cast<std::size_t>(config)]++ % blocks : 0;
  };

  if (!run.traced()) {
    // 0: dual-clock folds, 1: folds with the detector off.
    const auto reps = alternate(run, 2, [&](int config, bool timed) {
      const auto mode = config == 0 ? core::DetectorMode::kDualClock : core::DetectorMode::kOff;
      return explore_rep(run, programs, block_of(config, timed), mode, false, req++, nullptr);
    });
    run.set("throughput", median_rate(reps[0]));
    run.set("slowdown", paired_ratio(reps[0], reps[1]));
    run.set("setup_s", median_setup(reps[0]));
    return;
  }

  // Times come from every traced rep; the exact counts from block 0 alone,
  // so they do not depend on how many rounds fit in the budget.
  std::vector<std::vector<ProgramOutcome>> outcomes;
  const auto reps = alternate(run, 2, [&](int config, bool timed) {
    const bool traced = config == 0 && timed;
    if (traced) outcomes.emplace_back();
    return explore_rep(run, programs, block_of(config, timed), core::DetectorMode::kDualClock,
                       traced, req++, traced ? &outcomes.back() : nullptr);
  });
  run.set("trace.overhead_frac", paired_ratio(reps[0], reps[1]) - 1.0);
  std::vector<double> generate_us, program_us;
  double explore_us = 0, transitions_all = 0;
  for (const auto& rep : outcomes) {
    for (const ProgramOutcome& out : rep) {
      generate_us.push_back(out.generate_ns / 1e3);
      if (out.explore_ns == 0) continue;
      program_us.push_back(out.explore_ns / 1e3);
      explore_us += out.explore_ns / 1e3;
      transitions_all += out.transitions;
    }
  }
  double explored = 0, interleavings = 0, transitions = 0, sleep_blocked = 0, pruned = 0;
  for (const ProgramOutcome& out : outcomes.front()) {
    if (out.explore_ns == 0) continue;
    ++explored;
    interleavings += out.interleavings;
    transitions += out.transitions;
    sleep_blocked += out.sleep_blocked;
    pruned += out.pruned_branches;
  }
  run.notes.push_back("explore_certify: block 0 has " +
                      std::to_string(static_cast<std::uint64_t>(explored)) + " of " +
                      std::to_string(programs) + " programs eligible; the rest are skipped");
  run.set("fuzz.generate_us_p50", median(generate_us));
  run.set("explore.program_us_p50", median(program_us));
  run.set("explore.program_us_p99", quantile(program_us, 0.99));
  run.set("explore.us_per_transition", explore_us / transitions_all);
  run.set("explore.interleavings", interleavings / explored);
  run.set("explore.transitions", transitions / explored);
  run.set("explore.sleep_blocked", sleep_blocked / explored);
  run.set("explore.pruned_branches", pruned / explored);
  run.set("explore.useful_frac", interleavings / (interleavings + sleep_blocked));
  run_probes(run, private_probe_stream(run));
}

}  // namespace dsmr::bench
