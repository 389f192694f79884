// dsmr_explore — schedule exploration: differential conformance grids and
// exhaustive model checking.
//
// Grid mode (default): runs a (seed × perturbation) grid for one or more
// workload scenarios on a thread pool, cross-checking the epoch fast-path
// detector, the full-vector-clock oracle, the lockset baseline, and offline
// ground truth on every schedule (analysis/conformance.hpp). Any verdict
// disagreement fails the process with the reproducing (seed, perturbation)
// pair, and — with --trace-dir — an exported JSONL + Chrome trace of the
// exact schedule.
//
//   dsmr_explore --list
//   dsmr_explore [--scenario name[,name...]|all] [--ranks N]
//                [--seeds N|LO..HI] [--first-seed N] [--threads N]
//                [--perturbations K] [--perturb-min NS] [--perturb-max NS]
//                [--faults PLAN[;PLAN...]]
//                [--json FILE] [--trace-dir DIR] [--verbose]
//
// Exhaustive mode (--exhaustive): generates a slice of small fuzzed
// programs and explores EVERY inequivalent interleaving of each with
// DPOR + sleep sets over the threaded op model (explore/dpor.hpp),
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
// Exit status (both modes share dsmr_replay's discipline):
//   0  everything conforms / certifies;
//   1  divergence: a conformance disagreement, a missed planted bug, a
//      racy interleaving of a clean program, a DPOR-vs-naive signature
//      mismatch, or nondeterministic exploration counts;
//   2  invalid input or tripped limits: bad flags, unwritable --json /
//      --witness-dir, ineligible program sizes, or a --max-interleavings /
//      --max-ops budget that left an exploration incomplete (an incomplete
//      exploration certifies nothing, which is an input problem, not a
//      detector verdict).
//
// CI runs both modes as smoke stages; a reported (seed, perturbation)
// or witness log replays deterministically on any machine (docs/testing.md
// walks through both loops).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/conformance.hpp"
#include "explore/dpor.hpp"
#include "fuzz/generate.hpp"
#include "fuzz/harness.hpp"
#include "net/fault.hpp"
#include "record/log.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

using namespace dsmr;

namespace {

std::vector<std::string> split_names(const std::string& csv) {
  std::vector<std::string> names;
  std::stringstream stream(csv);
  std::string name;
  while (std::getline(stream, name, ',')) {
    if (!name.empty()) names.push_back(name);
  }
  return names;
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
  std::string json_path;
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

int run_exhaustive(const ExhaustiveParams& params) {
  // Pre-validate everything (exit 2 before any work, the dsmr_replay
  // discipline): ranks within the certification contract, kinds plantable
  // in the generator slice, output paths writable.
  if (params.ranks < 2 || params.ranks > 3) {
    std::fprintf(stderr,
                 "--exhaustive needs --ranks 2 or 3 (the certification "
                 "contract caps programs at 3 ranks)\n");
    return 2;
  }
  if (params.max_ops < 1 || params.max_ops > 8) {
    std::fprintf(stderr, "--max-ops must be in 1..8 (the certification cap)\n");
    return 2;
  }

  // The generator slice: small programs by construction. Two phases (one
  // boundary) keeps partial-barrier plantable, areas = nprocs + 1 keeps
  // ack-window plantable, and one filler op per rank per phase keeps even
  // the largest planted prologue (ack-window's producer: up to 6 ops)
  // inside the --max-ops 8 eligibility gate, so nothing in the slice is
  // silently under-certified.
  fuzz::GenConfig base;
  base.nprocs = params.ranks;
  base.areas = params.ranks + 1;
  base.area_bytes = 8;
  base.phases = 2;
  base.max_ops_per_rank = 1;
  base.max_sync_edges = 1;
  base.collective_fraction = 0.0;
  for (const fuzz::BugKind kind : params.kinds) {
    if (!fuzz::bug_kind_eligible(base, kind)) {
      std::fprintf(stderr,
                   "bug kind %s is not plantable in the exhaustive slice "
                   "(ranks=%d areas=%d phases=%d)\n",
                   fuzz::to_string(kind), base.nprocs, base.areas,
                   static_cast<int>(base.phases));
      return 2;
    }
  }

  std::ofstream json;
  if (!params.json_path.empty()) {
    json.open(params.json_path);
    if (!json) {
      std::fprintf(stderr, "cannot write --json %s\n", params.json_path.c_str());
      return 2;
    }
  }
  if (!params.witness_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(params.witness_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create --witness-dir %s: %s\n",
                   params.witness_dir.c_str(), ec.message().c_str());
      return 2;
    }
  }

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
  naive.sleep_sets = false;
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
    fuzz::GenConfig config = base;
    config.seed = seed;
    const bool plant = fuzz::plant_for_seed(seed, params.planted_fraction) &&
                       !params.kinds.empty();
    if (plant) {
      config.plant_bug = true;
      config.bug_kind = fuzz::kind_for_seed(seed, params.kinds);
    }
    const fuzz::Program program = fuzz::generate_program(config);

    ProgramOutcome outcome;
    outcome.seed = seed;
    outcome.arm = plant ? fuzz::to_string(config.bug_kind) : "clean";
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

  if (json.is_open()) {
    json << "{\"tool\":\"dsmr_explore\",\"mode\":\"exhaustive\""
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
      json << ",\"sampled\":{\"manifested\":" << sampled_manifested
           << ",\"completed\":" << sampled_completed
           << ",\"rate\":" << sampled_rate << "}";
    }
    if (params.compare_naive) {
      json << ",\"naive\":{\"programs\":" << naive_programs
           << ",\"naive_interleavings\":" << naive_total
           << ",\"dpor_interleavings\":" << naive_dpor_total
           << ",\"pruning_ratio\":" << pruning_ratio
           << ",\"capped\":" << naive_capped << "}";
    }
    json << ",\"witnesses\":[";
    for (std::size_t i = 0; i < witness_paths.size(); ++i) {
      if (i > 0) json << ",";
      json << "\"" << trace::json_escape(witness_paths[i]) << "\"";
    }
    json << "],\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      if (i > 0) json << ",";
      json << "\"" << trace::json_escape(failures[i]) << "\"";
    }
    json << "],\"limit_failures\":" << limit_failures.size() << "}\n";
    std::printf("wrote %s\n", params.json_path.c_str());
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
  util::Cli cli(argc, argv,
                "[--list] [--exhaustive] [--scenario name[,name...]|all] "
                "[--ranks N] [--seeds N|LO..HI] [--first-seed N] [--threads N] "
                "[--perturbations K] [--perturb-min NS] [--perturb-max NS] "
                "[--faults PLAN[;PLAN...]] [--max-ops N] "
                "[--max-interleavings N] [--bug-kinds K1,K2|all|none] "
                "[--planted-fraction F] [--witness-dir DIR] [--max-witnesses N] "
                "[--compare-naive] [--single-pass] [--skip-sample] "
                "[--json FILE] [--trace-dir DIR] [--verbose]");
  const bool list = cli.get_flag("list");
  const bool exhaustive = cli.get_flag("exhaustive");
  const std::string scenario_csv = cli.get_string("scenario", "all");
  const auto ranks = static_cast<int>(cli.get_int("ranks", exhaustive ? 3 : 4));
  const auto default_first = cli.get_uint("first-seed", 1);
  const auto seed_range = cli.get_seed_range(
      "seeds", util::SeedRange{default_first, exhaustive ? 64u : 32u});
  const std::uint64_t seeds = seed_range.count;
  const std::uint64_t first_seed = seed_range.first;
  const auto threads =
      static_cast<int>(cli.get_int("threads", util::ThreadPool::hardware_threads()));
  const auto perturbations = cli.get_uint("perturbations", 2);
  const std::int64_t perturb_min_raw = cli.get_int("perturb-min", 0);
  const std::int64_t perturb_max_raw = cli.get_int("perturb-max", 4'000);
  const std::string faults_text = cli.get_string("faults", "");
  const std::string json_path = cli.get_string("json", "");
  const std::string trace_dir = cli.get_string("trace-dir", "");
  const bool verbose = cli.get_flag("verbose");

  ExhaustiveParams params;
  params.ranks = ranks;
  params.seeds = seed_range;
  params.planted_fraction = cli.get_double("planted-fraction", 0.5);
  params.max_interleavings =
      cli.get_uint("max-interleavings", params.max_interleavings);
  params.max_ops = static_cast<int>(cli.get_int("max-ops", params.max_ops));
  params.max_witnesses =
      static_cast<std::size_t>(cli.get_uint("max-witnesses", 4));
  params.witness_dir = cli.get_string("witness-dir", "");
  params.compare_naive = cli.get_flag("compare-naive");
  params.single_pass = cli.get_flag("single-pass");
  params.skip_sample = cli.get_flag("skip-sample");
  params.json_path = json_path;
  params.verbose = verbose;
  const std::string bug_kinds_text =
      cli.get_string("bug-kinds", "partial-barrier,ack-window");
  cli.finish();

  if (exhaustive) {
    if (params.planted_fraction < 0.0 || params.planted_fraction > 1.0) {
      std::fprintf(stderr, "--planted-fraction must be in [0, 1]\n");
      return 2;
    }
    // "none" yields an all-clean slice — the only option below 3 ranks,
    // where no bug kind is plantable.
    std::string bug_kinds_error;
    const auto kinds = fuzz::parse_bug_kinds(bug_kinds_text, &bug_kinds_error);
    if (!kinds) {
      std::fprintf(stderr, "bad --bug-kinds: %s\n", bug_kinds_error.c_str());
      return 2;
    }
    params.kinds = *kinds;
    return run_exhaustive(params);
  }

  if (perturb_min_raw < 0 || perturb_max_raw < 0 || perturb_min_raw > perturb_max_raw) {
    std::fprintf(stderr, "--perturb-min/--perturb-max must satisfy 0 <= min <= max\n");
    return 2;
  }
  const auto perturb_min = static_cast<sim::Time>(perturb_min_raw);
  const auto perturb_max = static_cast<sim::Time>(perturb_max_raw);

  std::vector<net::FaultPlan> fault_plans;
  if (!faults_text.empty()) {
    std::string fault_error;
    const auto parsed = net::parse_fault_plan_list(faults_text, &fault_error);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "bad --faults: %s\n", fault_error.c_str());
      return 2;
    }
    fault_plans = *parsed;
  }

  if (list) {
    util::Table table({"scenario", "expect", "description"});
    for (const auto& scenario : analysis::builtin_scenarios()) {
      table.add_row({scenario.name, analysis::to_string(scenario.expect),
                     scenario.description});
    }
    std::printf("%s", table.render().c_str());
    return 0;
  }

  std::vector<const analysis::Scenario*> selected;
  if (scenario_csv == "all") {
    for (const auto& scenario : analysis::builtin_scenarios()) selected.push_back(&scenario);
  } else {
    for (const auto& name : split_names(scenario_csv)) {
      const auto* scenario = analysis::find_scenario(name);
      if (scenario == nullptr) {
        std::fprintf(stderr, "unknown --scenario %s (try --list)\n", name.c_str());
        return 2;
      }
      selected.push_back(scenario);
    }
  }

  analysis::ConformanceOptions options;
  options.base.nprocs = ranks;
  options.first_seed = first_seed;
  options.seeds = seeds;
  options.threads = threads;
  options.trace_dir = trace_dir;
  options.perturbations = sim::perturb_variants(perturb_min, perturb_max, perturbations);
  for (const auto& plan : fault_plans) {
    if (plan.wire_enabled()) options.fault_plans.push_back(plan);
  }

  // Open --json up front: an unwritable path is a usage error (exit 2) and
  // should fail before the grid burns minutes, not after.
  std::ofstream json_out;
  if (!json_path.empty()) {
    json_out.open(json_path);
    if (!json_out) {
      std::fprintf(stderr, "cannot write --json %s\n", json_path.c_str());
      return 2;
    }
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

  if (json_out.is_open()) {
    json_out << "{\"tool\":\"dsmr_explore\",\"ranks\":" << ranks << ",\"seeds\":" << seeds
             << ",\"first_seed\":" << first_seed << ",\"threads\":" << threads
             << ",\"variants\":" << options.perturbations.size() << ",\"faults\":[";
    for (std::size_t i = 0; i < options.fault_plans.size(); ++i) {
      if (i > 0) json_out << ",";
      json_out << "\"" << options.fault_plans[i].to_string() << "\"";
    }
    json_out << "],\"reports\":[";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      if (i > 0) json_out << ",";
      reports[i].write_json(json_out);
    }
    json_out << "]}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!all_passed) {
    std::printf("CONFORMANCE FAILURE: replay any disagreement with its (seed, "
                "perturbation, fault-plan) coordinate — see docs/testing.md\n");
    return 1;
  }
  std::printf("all scenarios conformant\n");
  return 0;
}
