// dsmr_explore — schedule exploration: differential conformance grids and
// exhaustive model checking.
//
// Grid mode (default): runs a (seed × perturbation) grid for one or more
// workload scenarios on a thread pool, cross-checking the epoch fast-path
// detector, the full-vector-clock oracle, the lockset baseline, and offline
// ground truth on every schedule (analysis/conformance.hpp). Any verdict
// disagreement fails the process with the reproducing (seed, perturbation)
// pair, and — with --witness-dir — the exact schedule's recorded ordering
// log, which `dsmr_replay --log` folds and renders as a trace.
//
//   dsmr_explore --list
//   dsmr_explore [--scenario name[,name...]|all] [--ranks N]
//                [--seeds N|LO..HI] [--first-seed N] [--threads N]
//                [--perturbations K] [--perturb-min NS] [--perturb-max NS]
//                [--faults PLAN[;PLAN...]]
//                [--json FILE] [--witness-dir DIR] [--verbose]
//
// Exhaustive mode (--exhaustive): generates a slice of small fuzzed
// programs and explores EVERY inequivalent interleaving of each, once, with
// optimal DPOR over the threaded op model (explore/dpor.hpp),
// upgrading the sampled grid's rates to proofs — every kSometimes planted
// bug must be FOUND somewhere in the space, every clean-by-construction
// program must CERTIFY clean over the full reduced space.
//
//   dsmr_explore --exhaustive [--seeds N|LO..HI] [--first-seed N]
//                [--ranks N<=3] [--max-ops N] [--max-interleavings N]
//                [--bug-kinds K1,K2|all|none] [--planted-fraction F]
//                [--witness-dir DIR] [--max-witnesses N]
//                [--compare-naive] [--single-pass] [--skip-sample]
//                [--json FILE] [--verbose]
//
// Every racy interleaving is exported (--witness-dir) as a record/ log that
// replays offline (`dsmr_replay --log`) and back onto real OS threads
// (ReplayGate). --compare-naive also runs naive full enumeration per
// program and cross-checks the signature sets (DPOR must find the same
// set with fewer interleavings). By default every program is explored
// twice and the counters must be bit-identical (--single-pass skips the
// second run), and the sampled (seed, perturbation) grid runs alongside so
// the report can show sampled manifestation rates next to the exhaustive
// found-rate.
//
// --seeds uses the shared seed-range grammar (util::parse_seed_range, also
// dsmr_fuzz's): a count ("64", starting at --first-seed) or an inclusive
// range ("100..163"). Malformed ranges are loud errors, never truncations.
//
// --faults (grid mode) adds a third grid axis: every (seed, perturbation)
// point reruns under each fault plan (preset name or [grammar] —
// net/fault.hpp), and the conformance layer checks fault transparency and
// clean failure.
//
// Exit status (docs/testing.md, "Exit codes"):
//   0  everything conforms / certifies;
//   1  divergence: a conformance disagreement, a missed planted bug, a
//      racy interleaving of a clean program, a DPOR-vs-naive signature
//      mismatch, or nondeterministic exploration counts;
//   2  a bad command line, before any run (util::Cli checks every flag and
//      prepares --json and --witness-dir), or a --max-interleavings /
//      --max-ops budget that left an exploration incomplete (an incomplete
//      exploration certifies nothing, which is an input problem, not a
//      detector verdict).
//
// CI runs both modes as smoke stages; a reported (seed, perturbation)
// or witness log replays deterministically on any machine (docs/testing.md
// walks through both loops).
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/conformance.hpp"
#include "explore/dpor.hpp"
#include "fuzz/generate.hpp"
#include "fuzz/harness.hpp"
#include "net/fault.hpp"
#include "record/log.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

using namespace dsmr;

namespace {

/// `--scenario`: `all` or a comma list of builtin scenario names.
std::optional<std::vector<const analysis::Scenario*>> parse_scenarios(const std::string& csv,
                                                                      std::string* error) {
  std::vector<const analysis::Scenario*> selected;
  if (csv == "all") {
    for (const auto& scenario : analysis::builtin_scenarios()) selected.push_back(&scenario);
    return selected;
  }
  std::stringstream stream(csv);
  for (std::string name; std::getline(stream, name, ',');) {
    if (name.empty()) continue;
    const auto* scenario = analysis::find_scenario(name);
    if (scenario == nullptr) {
      *error = "unknown scenario " + name + " (try --list)";
      return std::nullopt;
    }
    selected.push_back(scenario);
  }
  return selected;
}

/// The generator slice --exhaustive certifies: small programs by
/// construction. Two phases (one boundary) keeps partial-barrier plantable,
/// areas = nprocs + 1 keeps ack-window plantable, and one filler op per rank
/// per phase keeps even the largest planted prologue (ack-window's producer:
/// up to 6 ops) inside the --max-ops 8 eligibility gate, so nothing in the
/// slice is silently under-certified.
fuzz::GenConfig exhaustive_slice(int ranks) {
  fuzz::GenConfig base;
  base.nprocs = ranks;
  base.areas = ranks + 1;
  base.area_bytes = 8;
  base.phases = 2;
  base.max_ops_per_rank = 1;
  base.max_sync_edges = 1;
  base.collective_fraction = 0.0;
  return base;
}

struct ExhaustiveParams {
  int ranks = 3;
  util::SeedRange seeds{1, 64};
  std::vector<fuzz::BugKind> kinds;
  double planted_fraction = 0.5;
  std::uint64_t max_interleavings = 1u << 20;
  int max_ops = 8;
  std::size_t max_witnesses = 4;
  std::string witness_dir;
  bool compare_naive = false;
  bool single_pass = false;
  bool skip_sample = false;
  bool verbose = false;
};

/// One program's exploration outcome, for the table / JSON.
struct ProgramOutcome {
  std::uint64_t seed = 0;
  std::string arm;  ///< "clean" or the planted kind name.
  fuzz::Expectation expect = fuzz::Expectation::kClean;
  bool skipped = false;
  std::string skip_reason;
  explore::ExploreReport report;
  std::vector<std::string> failures;       ///< non-limit divergences.
  std::vector<std::string> limit_failures; ///< tripped budgets (exit 2).
  std::vector<std::string> witness_paths;
  std::uint64_t naive_interleavings = 0;   ///< 0 when naive off/capped.
  std::uint64_t sampled_manifested = 0;
  std::uint64_t sampled_completed = 0;
};

bool same_counters(const explore::ExploreReport& a, const explore::ExploreReport& b) {
  return a.complete == b.complete && a.interleavings == b.interleavings &&
         a.deadlocks == b.deadlocks && a.sleep_blocked == b.sleep_blocked &&
         a.transitions == b.transitions &&
         a.pruned_branches == b.pruned_branches &&
         a.racy_interleavings == b.racy_interleavings &&
         a.planted_flagged == b.planted_flagged && a.signatures == b.signatures;
}

int run_exhaustive(const ExhaustiveParams& params, util::OutputFile& json) {
  const fuzz::GenConfig base = exhaustive_slice(params.ranks);
  std::printf("--- dsmr_explore --exhaustive: %llu program(s), ranks=%d, "
              "max-ops=%d, max-interleavings=%llu ---\n",
              static_cast<unsigned long long>(params.seeds.count), params.ranks,
              params.max_ops,
              static_cast<unsigned long long>(params.max_interleavings));

  explore::ExploreOptions reduced;
  reduced.max_interleavings = params.max_interleavings;
  reduced.max_witnesses = params.max_witnesses;
  explore::ExploreOptions naive = reduced;
  naive.dpor = false;
  naive.max_witnesses = 0;

  std::vector<ProgramOutcome> outcomes;
  std::uint64_t clean_programs = 0, sometimes_programs = 0, racy_programs = 0;
  std::uint64_t skipped = 0, found = 0, certified = 0, racy_pass = 0;
  std::uint64_t total_interleavings = 0, total_pruned = 0, total_sleep_blocked = 0;
  std::uint64_t naive_total = 0, naive_dpor_total = 0, naive_capped = 0,
                naive_programs = 0;
  std::uint64_t sampled_manifested = 0, sampled_completed = 0;
  bool deterministic = true;

  for (std::uint64_t i = 0; i < params.seeds.count; ++i) {
    const std::uint64_t seed = params.seeds.first + i;
    const fuzz::GenConfig config =
        fuzz::config_for_seed(base, seed, params.planted_fraction, params.kinds);
    const fuzz::Program program = fuzz::generate_program(config);

    ProgramOutcome outcome;
    outcome.seed = seed;
    outcome.arm = config.plant_bug ? fuzz::to_string(config.bug_kind) : "clean";
    outcome.expect = program.expect;

    const auto eligibility =
        explore::exhaustive_eligible(program, params.ranks, params.max_ops);
    if (!eligibility.eligible) {
      outcome.skipped = true;
      outcome.skip_reason = eligibility.reason;
      ++skipped;
      outcomes.push_back(std::move(outcome));
      continue;
    }

    switch (program.expect) {
      case fuzz::Expectation::kClean: ++clean_programs; break;
      case fuzz::Expectation::kRacy: ++racy_programs; break;
      case fuzz::Expectation::kSometimes: ++sometimes_programs; break;
    }

    outcome.report = explore::explore_program(program, reduced);
    const explore::ExploreReport& report = outcome.report;
    total_interleavings += report.interleavings;
    total_pruned += report.pruned_branches;
    total_sleep_blocked += report.sleep_blocked;

    if (!params.single_pass) {
      const auto second = explore::explore_program(program, reduced);
      if (!same_counters(report, second)) {
        deterministic = false;
        outcome.failures.push_back(
            "explore-nondeterministic: two passes over seed " +
            std::to_string(seed) + " disagree on counters");
      }
    }

    for (const std::string& failure : explore::check_exhaustive(program, report)) {
      if (failure.rfind("explore-limit", 0) == 0) {
        outcome.limit_failures.push_back(failure);
      } else {
        outcome.failures.push_back(failure);
      }
    }
    if (outcome.failures.empty() && outcome.limit_failures.empty()) {
      if (program.expect == fuzz::Expectation::kSometimes) ++found;
      if (program.expect == fuzz::Expectation::kClean &&
          report.certified_clean()) {
        ++certified;
      }
      if (program.expect == fuzz::Expectation::kRacy) ++racy_pass;
    }

    if (!params.witness_dir.empty()) {
      for (std::size_t w = 0; w < report.witnesses.size(); ++w) {
        const std::string path = params.witness_dir + "/explore-s" +
                                 std::to_string(seed) + "-w" +
                                 std::to_string(w) + ".dsmrlog";
        record::write_file(path, report.witnesses[w].serialize());
        outcome.witness_paths.push_back(path);
      }
    }

    if (params.compare_naive) {
      const auto full = explore::explore_program(program, naive);
      if (!full.limit.empty()) {
        ++naive_capped;
      } else {
        ++naive_programs;
        naive_total += full.interleavings;
        naive_dpor_total += report.interleavings;
        outcome.naive_interleavings = full.interleavings;
        if (full.signatures != report.signatures) {
          outcome.failures.push_back(
              "exhaustive-crosscheck: DPOR signature set differs from naive "
              "enumeration on seed " +
              std::to_string(seed));
        }
        if (report.complete && report.interleavings > full.interleavings) {
          outcome.failures.push_back(
              "exhaustive-crosscheck: DPOR executed more interleavings (" +
              std::to_string(report.interleavings) + ") than naive (" +
              std::to_string(full.interleavings) + ") on seed " +
              std::to_string(seed));
        }
      }
    }

    if (!params.skip_sample) {
      fuzz::FuzzCheckOptions sampled;
      sampled.schedule_seeds = 3;
      sampled.perturbations = sim::perturb_variants(0, 4'000, 2);
      const auto verdict = fuzz::check_program(program, sampled);
      outcome.sampled_manifested = verdict.manifested_runs;
      outcome.sampled_completed = verdict.completed_runs;
      if (program.expect == fuzz::Expectation::kSometimes) {
        sampled_manifested += verdict.manifested_runs;
        sampled_completed += verdict.completed_runs;
      }
      for (const auto& divergence : verdict.failures) {
        outcome.failures.push_back("sampled-grid " + divergence.check + ": " +
                                   divergence.detail);
      }
    }

    outcomes.push_back(std::move(outcome));
  }

  // Report.
  util::Table table({"seed", "arm", "expect", "interleavings", "pruned",
                     "sleep-blocked", "racy", "sigs", "naive", "status"});
  std::vector<std::string> failures, limit_failures;
  std::vector<std::string> witness_paths;
  for (const auto& outcome : outcomes) {
    std::string status = "ok";
    if (outcome.skipped) {
      status = "skipped";
    } else if (!outcome.failures.empty()) {
      status = "FAIL";
    } else if (!outcome.limit_failures.empty()) {
      status = "capped";
    }
    if (params.verbose || status == "FAIL" || status == "capped") {
      table.add_row({std::to_string(outcome.seed), outcome.arm,
                     fuzz::to_string(outcome.expect),
                     util::Table::fmt_int(outcome.report.interleavings),
                     util::Table::fmt_int(outcome.report.pruned_branches),
                     util::Table::fmt_int(outcome.report.sleep_blocked),
                     util::Table::fmt_int(outcome.report.racy_interleavings),
                     util::Table::fmt_int(outcome.report.signatures.size()),
                     outcome.naive_interleavings == 0
                         ? "-"
                         : util::Table::fmt_int(outcome.naive_interleavings),
                     status});
    }
    for (const auto& failure : outcome.failures) {
      failures.push_back("seed " + std::to_string(outcome.seed) + ": " + failure);
    }
    for (const auto& failure : outcome.limit_failures) {
      limit_failures.push_back("seed " + std::to_string(outcome.seed) + ": " +
                               failure);
    }
    witness_paths.insert(witness_paths.end(), outcome.witness_paths.begin(),
                         outcome.witness_paths.end());
  }
  std::printf("%s", table.render().c_str());

  const std::uint64_t explored =
      clean_programs + sometimes_programs + racy_programs;
  const double found_rate =
      sometimes_programs == 0
          ? 1.0
          : static_cast<double>(found) / static_cast<double>(sometimes_programs);
  const double sampled_rate =
      sampled_completed == 0 ? 0.0
                             : static_cast<double>(sampled_manifested) /
                                   static_cast<double>(sampled_completed);
  const double pruning_ratio =
      naive_dpor_total == 0 ? 0.0
                            : static_cast<double>(naive_total) /
                                  static_cast<double>(naive_dpor_total);

  std::printf("explored %llu program(s): %llu clean, %llu sometimes, %llu racy"
              " (%llu skipped); %llu interleavings, %llu pruned branches\n",
              static_cast<unsigned long long>(explored),
              static_cast<unsigned long long>(clean_programs),
              static_cast<unsigned long long>(sometimes_programs),
              static_cast<unsigned long long>(racy_programs),
              static_cast<unsigned long long>(skipped),
              static_cast<unsigned long long>(total_interleavings),
              static_cast<unsigned long long>(total_pruned));
  std::printf("kSometimes found-rate: %.3f (%llu/%llu)",
              found_rate, static_cast<unsigned long long>(found),
              static_cast<unsigned long long>(sometimes_programs));
  if (!params.skip_sample) {
    std::printf("; sampled grid manifestation rate: %.3f (%llu/%llu runs)",
                sampled_rate,
                static_cast<unsigned long long>(sampled_manifested),
                static_cast<unsigned long long>(sampled_completed));
  }
  std::printf("\nclean certified: %llu/%llu\n",
              static_cast<unsigned long long>(certified),
              static_cast<unsigned long long>(clean_programs));
  if (params.compare_naive) {
    std::printf("naive cross-check: %llu vs %llu DPOR interleavings over %llu "
                "program(s) — %.2fx pruning (%llu naive-capped)\n",
                static_cast<unsigned long long>(naive_total),
                static_cast<unsigned long long>(naive_dpor_total),
                static_cast<unsigned long long>(naive_programs), pruning_ratio,
                static_cast<unsigned long long>(naive_capped));
  }
  if (!witness_paths.empty()) {
    std::printf("%zu witness log(s) in %s (replay: dsmr_replay --log FILE)\n",
                witness_paths.size(), params.witness_dir.c_str());
  }
  for (const auto& failure : failures) std::printf("FAIL %s\n", failure.c_str());
  for (const auto& failure : limit_failures) {
    std::printf("LIMIT %s\n", failure.c_str());
  }

  if (json.out.is_open()) {
    json.out << "{\"tool\":\"dsmr_explore\",\"mode\":\"exhaustive\""
             << ",\"ranks\":" << params.ranks
             << ",\"first_seed\":" << params.seeds.first
             << ",\"seeds\":" << params.seeds.count
             << ",\"max_ops\":" << params.max_ops
             << ",\"max_interleavings\":" << params.max_interleavings
             << ",\"programs\":" << explored
             << ",\"clean_programs\":" << clean_programs
             << ",\"sometimes_programs\":" << sometimes_programs
             << ",\"racy_programs\":" << racy_programs
             << ",\"skipped_ineligible\":" << skipped
             << ",\"interleavings\":" << total_interleavings
             << ",\"pruned_branches\":" << total_pruned
             << ",\"sleep_blocked\":" << total_sleep_blocked
             << ",\"found\":" << found << ",\"found_rate\":" << found_rate
             << ",\"certified_clean\":" << certified
             << ",\"racy_passed\":" << racy_pass
             << ",\"deterministic\":" << (deterministic ? "true" : "false");
    if (!params.skip_sample) {
      json.out << ",\"sampled\":{\"manifested\":" << sampled_manifested
               << ",\"completed\":" << sampled_completed
               << ",\"rate\":" << sampled_rate << "}";
    }
    if (params.compare_naive) {
      json.out << ",\"naive\":{\"programs\":" << naive_programs
               << ",\"naive_interleavings\":" << naive_total
               << ",\"dpor_interleavings\":" << naive_dpor_total
               << ",\"pruning_ratio\":" << pruning_ratio
               << ",\"capped\":" << naive_capped << "}";
    }
    json.out << ",\"witnesses\":[";
    for (std::size_t i = 0; i < witness_paths.size(); ++i) {
      if (i > 0) json.out << ",";
      json.out << "\"" << util::json_escape(witness_paths[i]) << "\"";
    }
    json.out << "],\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      if (i > 0) json.out << ",";
      json.out << "\"" << util::json_escape(failures[i]) << "\"";
    }
    json.out << "],\"limit_failures\":" << limit_failures.size() << "}\n";
    std::printf("wrote %s\n", json.path.c_str());
  }

  if (!failures.empty() || !deterministic) {
    std::printf("EXHAUSTIVE FAILURE: a planted bug was missed, a clean program "
                "raced, or exploration diverged — replay the witness logs\n");
    return 1;
  }
  if (!limit_failures.empty() || skipped != 0) {
    std::printf("EXHAUSTIVE INCOMPLETE: %zu exploration(s) tripped a budget, "
                "%llu program(s) over the size gate — nothing was certified "
                "for them; raise --max-interleavings / --max-ops or shrink "
                "the slice\n",
                limit_failures.size(), static_cast<unsigned long long>(skipped));
    return 2;
  }
  std::printf("every planted bug found, every clean program certified\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const bool list = cli.get_flag("list");
  const bool exhaustive = cli.get_flag("exhaustive");
  const auto selected = cli.get_parsed("scenario", "all", parse_scenarios);
  // The certification contract caps --exhaustive programs at 3 ranks and 8
  // ops per rank.
  const int ranks = exhaustive ? cli.get_int("ranks", 3, 2, 3) : cli.get_int("ranks", 4, 1);
  const auto default_first = cli.get_uint("first-seed", 1);
  const auto seed_range = cli.get_seed_range(
      "seeds", util::SeedRange{default_first, exhaustive ? 64u : 32u});
  const std::uint64_t seeds = seed_range.count;
  const std::uint64_t first_seed = seed_range.first;
  const int threads =
      cli.get_int("threads", util::ThreadPool::hardware_threads(), 1, util::kMaxThreads);
  const auto perturbations = cli.get_uint("perturbations", 2);
  const sim::Time perturb_min = cli.get_uint("perturb-min", 0);
  const sim::Time perturb_max = cli.get_uint("perturb-max", 4'000);
  cli.check(perturb_min <= perturb_max, "--perturb-min must be <= --perturb-max");
  const auto fault_plans = cli.get_parsed("faults", "", net::parse_fault_plan_list);
  util::OutputFile& json = cli.get_output_file("json");
  const bool verbose = cli.get_flag("verbose");

  ExhaustiveParams params;
  params.ranks = ranks;
  params.seeds = seed_range;
  params.planted_fraction = cli.get_double("planted-fraction", 0.5, 0.0, 1.0);
  params.max_interleavings =
      cli.get_uint("max-interleavings", params.max_interleavings);
  params.max_ops = cli.get_int("max-ops", params.max_ops, 1, 8);
  params.max_witnesses =
      static_cast<std::size_t>(cli.get_uint("max-witnesses", 4));
  params.witness_dir = cli.get_output_dir("witness-dir");
  params.compare_naive = cli.get_flag("compare-naive");
  params.single_pass = cli.get_flag("single-pass");
  params.skip_sample = cli.get_flag("skip-sample");
  params.verbose = verbose;
  // "none" yields an all-clean slice — the only option below 3 ranks,
  // where no bug kind is plantable.
  params.kinds =
      cli.get_parsed("bug-kinds", "partial-barrier,ack-window", fuzz::parse_bug_kinds);
  for (const fuzz::BugKind kind : params.kinds) {
    cli.check(!exhaustive || fuzz::bug_kind_eligible(exhaustive_slice(ranks), kind),
              std::string("bug kind ") + fuzz::to_string(kind) +
                  " is not plantable in the exhaustive slice at --ranks " +
                  std::to_string(ranks));
  }
  for (const auto* scenario : selected) {
    cli.check(exhaustive || ranks >= scenario->min_ranks,
              "scenario " + scenario->name + " needs --ranks >= " +
                  std::to_string(scenario->min_ranks) + ", got " + std::to_string(ranks));
  }
  if (!cli.ok()) return 2;

  if (exhaustive) return run_exhaustive(params, json);

  if (list) {
    util::Table table({"scenario", "expect", "description"});
    for (const auto& scenario : analysis::builtin_scenarios()) {
      table.add_row({scenario.name, analysis::to_string(scenario.expect),
                     scenario.description});
    }
    std::printf("%s", table.render().c_str());
    return 0;
  }

  analysis::ConformanceOptions options;
  options.base.nprocs = ranks;
  options.first_seed = first_seed;
  options.seeds = seeds;
  options.threads = threads;
  options.witness_dir = params.witness_dir;
  options.perturbations = sim::perturb_variants(perturb_min, perturb_max, perturbations);
  for (const auto& plan : fault_plans) {
    if (plan.wire_enabled()) options.fault_plans.push_back(plan);
  }

  std::printf("--- dsmr_explore: %zu scenario(s) × %llu seeds × %zu schedule "
              "variants on %d thread(s) ---\n",
              selected.size(), static_cast<unsigned long long>(seeds),
              options.perturbations.size(), threads);
  for (const auto& plan : options.fault_plans) {
    std::printf("fault plan: %s (%s)\n", plan.to_string().c_str(),
                plan.recoverable() ? "recoverable" : "unrecoverable");
  }

  std::vector<analysis::ConformanceReport> reports;
  bool all_passed = true;
  util::Table table({"scenario", "expect", "schedules", "manifested", "truth",
                     "deadlocks", "lockset-div", "fault-runs", "transparent",
                     "watchdog", "disagree"});
  for (const auto* scenario : selected) {
    auto report = analysis::run_conformance(*scenario, options);
    all_passed = all_passed && report.passed();
    table.add_row({report.scenario, analysis::to_string(report.expect),
                   util::Table::fmt_int(report.base_schedules),
                   util::Table::fmt_int(report.runs_with_reports),
                   util::Table::fmt_int(report.runs_with_truth),
                   util::Table::fmt_int(report.incomplete_runs),
                   util::Table::fmt_int(report.lockset_divergences),
                   util::Table::fmt_int(report.fault_runs),
                   util::Table::fmt_int(report.fault_transparent_runs),
                   util::Table::fmt_int(report.watchdog_runs),
                   util::Table::fmt_int(report.disagreements.size())});
    if (verbose || !report.passed()) std::printf("%s\n", report.render().c_str());
    if (!report.passed()) {
      // Surface the watchdog's stuck-task dump for every non-quiescent run
      // behind a failure: the stuck rank and its pending op are the repro.
      for (const auto& run : report.runs) {
        if (run.completed || run.diagnostic.empty()) continue;
        std::printf("[%s seed=%llu fault=\"%s\"]\n%s\n", report.scenario.c_str(),
                    static_cast<unsigned long long>(run.seed),
                    run.fault.to_string().c_str(), run.diagnostic.c_str());
      }
    }
    reports.push_back(std::move(report));
  }
  std::printf("%s", table.render().c_str());

  if (json.out.is_open()) {
    json.out << "{\"tool\":\"dsmr_explore\",\"ranks\":" << ranks << ",\"seeds\":" << seeds
             << ",\"first_seed\":" << first_seed << ",\"threads\":" << threads
             << ",\"variants\":" << options.perturbations.size() << ",\"faults\":[";
    for (std::size_t i = 0; i < options.fault_plans.size(); ++i) {
      if (i > 0) json.out << ",";
      json.out << "\"" << util::json_escape(options.fault_plans[i].to_string()) << "\"";
    }
    json.out << "],\"reports\":[";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      if (i > 0) json.out << ",";
      reports[i].write_json(json.out);
    }
    json.out << "]}\n";
    std::printf("wrote %s\n", json.path.c_str());
  }

  if (!all_passed) {
    std::printf("CONFORMANCE FAILURE: replay any disagreement with its (seed, "
                "perturbation, fault-plan) coordinate — see docs/testing.md\n");
    return 1;
  }
  std::printf("all scenarios conformant\n");
  return 0;
}
