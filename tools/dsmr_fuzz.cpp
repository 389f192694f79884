// dsmr_fuzz — program-space fuzzing with computable ground truth.
//
// Where dsmr_explore sweeps schedules of hand-written scenarios, dsmr_fuzz
// generates the *programs* too: each program seed yields a random
// phase-structured PGAS workload (puts/gets, signal/wait edges, collective
// phase boundaries) whose race status is decided by construction
// (src/fuzz/generate.hpp) — clean programs must stay silent on every
// schedule; always-racy planted bugs (dropped-edge, wrong-lock) must be
// flagged by both detector modes on every schedule; schedule-dependent
// planted bugs (partial-barrier, ack-window) must be flagged on at least
// one schedule, never produce clean-schedule noise, and report a measured
// manifestation rate. Every generated program runs through the full
// differential conformance grid (epoch fast path vs full-VC oracle vs live
// reports vs offline ground truth). Those grids sample schedules; the
// exhaustive proof over every interleaving of a small program is
// `dsmr_explore --exhaustive`, which runs the same check_program next to
// its explorer.
//
// Seed scheduling (`--schedule`): `uniform` sweeps the seed range with one
// op-mix profile; `coverage` lets a novelty bandit pick (profile, bug-kind)
// arms that keep producing unseen coverage signatures, optionally persisted
// across runs with `--corpus-dir`.
//
// Any violated invariant is minimized by the delta-debugging shrinker and
// written as a self-contained repro file that `--replay` re-runs
// bit-identically.
//
//   dsmr_fuzz [--seeds N|LO..HI] [--ranks N] [--areas N] [--phases N]
//             [--ops N] [--area-bytes N] [--profile NAME]
//             [--planted-fraction F] [--bug-kinds all|none|K1,K2,...]
//             [--schedule uniform|coverage] [--corpus-dir DIR]
//             [--schedule-seeds K] [--perturbations K] [--perturb-min NS]
//             [--perturb-max NS] [--threads N] [--budget-ms MS]
//             [--json FILE] [--repro-dir DIR] [--record-dir DIR]
//             [--no-shrink] [--faults PLAN;PLAN;...] [--verbose]
//   dsmr_fuzz --replay FILE [--threads N]
//   dsmr_fuzz --backend threaded|both [--thread-reps N] [--sim-seeds N]
//             [--shards N] [--thread-timeout-ms MS] [generation flags]
//
// `--backend` selects the execution backend (default `sim`, the full
// conformance grid above). `threaded` runs each generated program on the
// real-threads backend (runtime::ThreadWorld: one OS thread per rank, the
// detector inline on the put/get path under its shard mutexes; `--shards`
// sets the detector shards per home) and self-checks verdict signatures
// against the program's construction contract; `both` additionally runs
// the sim oracle — the same check_program a `sim` sweep runs, on
// `--sim-seeds` schedule seeds — and counts any clean/always-racy signature
// disagreement as a divergence (exit 1). Real schedules are not
// seeded-replayable, so kSometimes manifestation is reported
// informationally only — see docs/testing.md, "Backends". The summary
// reports inline-detector throughput (checks/sec) over the threaded runs.
//
// Exit status (docs/testing.md, "Exit codes"): 0 when every program
// conforms (or a --replay reproduces its recorded check), 1 on any
// disagreement (or a failed replay), 2 on a bad command line — util::Cli
// checks every flag and prepares --json and the output directories before
// any program runs — or an unreadable --replay input.
//
// `--faults` takes a ';'-list of fault plans (net/fault.hpp: presets
// like `loss1`, `dupdelay`, `crash-restart`, `blackhole`, or the full
// `drop=PPM,...` grammar): wire-enabled plans run next to every fault-free
// schedule and are held to fault-transparency (recoverable) or
// clean-failure (unrecoverable); the `drop-live-reports` plan is the
// test-only harness hook that exercises the failure → shrink → repro loop;
// see docs/testing.md. Non-quiescent runs print the quiescence watchdog's
// stuck-task dump and exit 1 unless expected (unrecoverable plans).
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "fuzz/generate.hpp"
#include "fuzz/harness.hpp"
#include "fuzz/shrink.hpp"
#include "fuzz/thread_harness.hpp"
#include "net/fault.hpp"
#include "record/log.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

using namespace dsmr;

namespace {

int run_replay(const std::string& path, int threads) {
  // Read-time input: a repro (and its companion log) is disk input.
  std::string error;
  const auto bytes = record::read_file(path, &error);
  const std::string text =
      bytes ? std::string(reinterpret_cast<const char*>(bytes->data()), bytes->size()) : "";
  const auto repro = bytes ? fuzz::parse_repro(text, &error) : std::nullopt;
  if (!repro) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return 2;
  }
  // Bit-identical round trip: the repro must re-serialize to exactly the
  // bytes on disk, so what replays is provably what was found.
  if (fuzz::serialize_repro(*repro) != text) {
    std::fprintf(stderr, "repro %s does not round-trip byte-identically\n", path.c_str());
    return 1;
  }
  // v4: a companion ordering log must re-record byte-identically from the
  // repro's coordinate — cross-process, cross-machine.
  if (!repro->record_log.empty()) {
    const auto log_path =
        (std::filesystem::path(path).parent_path() / repro->record_log).string();
    const auto raw = record::read_file(log_path, &error);
    if (!raw) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
    const std::string mismatch = fuzz::check_repro_log(*repro, *raw);
    if (!mismatch.empty()) {
      std::printf("companion log %s: %s\nLOG DIVERGED\n", log_path.c_str(),
                  mismatch.c_str());
      return 1;
    }
    std::printf("companion log %s: %zu bytes, re-recorded byte-identically\n",
                log_path.c_str(), raw->size());
  }
  const auto fired = fuzz::replay_repro(*repro, threads);
  std::printf("replay of %s: program_seed=%llu schedule_seed=%llu perturb=%s fault=%s "
              "manifestation=%llu/%llu\n",
              path.c_str(), static_cast<unsigned long long>(repro->program_seed),
              static_cast<unsigned long long>(repro->schedule_seed),
              repro->perturb.to_string().c_str(), repro->fault.to_string().c_str(),
              static_cast<unsigned long long>(repro->manifested),
              static_cast<unsigned long long>(repro->schedules));
  std::printf("recorded check: %s\nfired checks:  ", repro->check.c_str());
  if (fired.empty()) std::printf("(none)");
  for (const auto& name : fired) std::printf(" %s", name.c_str());
  std::printf("\n");
  const bool ok =
      std::find(fired.begin(), fired.end(), repro->check) != fired.end();
  std::printf(ok ? "REPRODUCED\n" : "NOT REPRODUCED\n");
  return ok ? 0 : 1;
}

struct FailureRecord {
  std::uint64_t program_seed = 0;
  std::string arm;
  std::string check;
  std::string detail;
  std::uint64_t schedule_seed = 0;
  sim::PerturbConfig perturb{};
  net::FaultPlan fault{};
  std::uint64_t manifested = 0;
  std::uint64_t schedules = 0;
  std::string repro_path;
  std::size_t ops_before = 0;
  std::size_t ops_after = 0;
};

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::string replay_path = cli.get_string("replay", "");
  const int threads =
      cli.get_int("threads", util::ThreadPool::hardware_threads(), 1, util::kMaxThreads);
  const auto seeds = cli.get_seed_range("seeds", util::SeedRange{1, 64});
  const std::string backend = cli.get_choice("backend", "sim", {"sim", "threaded", "both"});
  fuzz::GenConfig gen;
  // Profile first, explicit flags second: --phases/--ops passed alongside
  // --profile must override the profile's shape, not be overwritten by it.
  const std::string profile = cli.get_choice("profile", "mixed", fuzz::profile_names());
  fuzz::apply_profile(profile, gen);
  // The generator's structural caps (fuzz/program.hpp); on the threaded
  // backends every rank is an OS thread.
  gen.nprocs = cli.get_int("ranks", gen.nprocs, 1,
                           backend == "sim" ? fuzz::kMaxProcs : util::kMaxThreads);
  gen.areas = cli.get_int("areas", gen.areas, 1, fuzz::kMaxAreas);
  gen.phases = cli.get_int("phases", gen.phases, 1, static_cast<int>(fuzz::kMaxPhases));
  gen.max_ops_per_rank =
      cli.get_int("ops", gen.max_ops_per_rank, 1, static_cast<int>(fuzz::kMaxOpsPerRank));
  gen.area_bytes = static_cast<std::uint32_t>(
      cli.get_uint("area-bytes", gen.area_bytes, 1, fuzz::kMaxAreaBytes));
  double planted_fraction = cli.get_double("planted-fraction", 0.5, 0.0, 1.0);
  const auto schedule = *fuzz::parse_schedule_mode(
      cli.get_choice("schedule", "uniform", {"uniform", "coverage"}));
  const std::string corpus_dir = cli.get_output_dir("corpus-dir");
  const auto requested_kinds = cli.get_parsed("bug-kinds", "all", fuzz::parse_bug_kinds);
  const auto schedule_seeds = cli.get_uint("schedule-seeds", 3, 1);
  const auto perturbations = cli.get_uint("perturbations", 1);
  const sim::Time perturb_min = cli.get_uint("perturb-min", 0);
  const sim::Time perturb_max = cli.get_uint("perturb-max", 4'000);
  cli.check(perturb_min <= perturb_max, "--perturb-min must be <= --perturb-max");
  const int budget_ms = cli.get_int("budget-ms", 0);
  util::OutputFile& json = cli.get_output_file("json");
  const std::string repro_dir = cli.get_output_dir("repro-dir");
  const std::string record_dir = cli.get_output_dir("record-dir");
  const bool no_shrink = cli.get_flag("no-shrink");
  // --faults takes a ';'-list of plans (one plan, or the drop-live-reports
  // alias, is a one-element list).
  const auto fault_plans = cli.get_parsed("faults", "", net::parse_fault_plan_list);
  const int thread_reps = cli.get_int("thread-reps", 3, 1);
  const auto sim_seeds = cli.get_uint("sim-seeds", 2);
  const int shards = cli.get_int("shards", 8, 1);
  const int thread_timeout_ms = cli.get_int("thread-timeout-ms", 10'000, 1);
  const bool verbose = cli.get_flag("verbose");
  if (!cli.ok()) return 2;

  if (!replay_path.empty()) return run_replay(replay_path, threads);

  // Drop the kinds this program shape cannot host (loudly).
  std::vector<fuzz::BugKind> bug_kinds;
  for (const auto kind : requested_kinds) {
    if (fuzz::bug_kind_eligible(gen, kind)) {
      bug_kinds.push_back(kind);
    } else {
      std::fprintf(stderr,
                   "note: bug kind %s is infeasible at %d ranks / %d areas / %d "
                   "phases; skipping it\n",
                   fuzz::to_string(kind), gen.nprocs, gen.areas, gen.phases);
    }
  }
  if (bug_kinds.empty() && planted_fraction > 0.0) {
    std::fprintf(stderr, "note: no feasible bug kinds; generating clean programs only\n");
    planted_fraction = 0.0;
  }
  const bool drop_live_armed =
      std::any_of(fault_plans.begin(), fault_plans.end(),
                  [](const net::FaultPlan& p) { return p.drop_live_reports; });

  if (backend != "sim") {
    fuzz::ThreadSweepConfig tsweep;
    tsweep.base = gen;
    tsweep.seeds = seeds;
    tsweep.planted_fraction = planted_fraction;
    tsweep.bug_kinds = bug_kinds;
    tsweep.diff.thread_reps = thread_reps;
    tsweep.diff.sim_schedule_seeds = sim_seeds;
    tsweep.diff.compare_sim = backend == "both";
    tsweep.diff.thread.shards = shards;
    tsweep.diff.thread.timeout = std::chrono::milliseconds(thread_timeout_ms);

    const auto start = std::chrono::steady_clock::now();
    std::printf("--- dsmr_fuzz --backend %s: seeds [%llu..%llu], profile %s, %d "
                "threaded rep(s) × %d rank-thread(s)%s ---\n",
                backend.c_str(), static_cast<unsigned long long>(seeds.first),
                static_cast<unsigned long long>(seeds.first + seeds.count - 1),
                profile.c_str(), thread_reps, gen.nprocs,
                backend == "both"
                    ? (", sim oracle with " + std::to_string(sim_seeds) + " seed(s)")
                          .c_str()
                    : "");
    const auto result = fuzz::run_thread_sweep(tsweep);
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();

    for (const auto& divergence : result.divergences) {
      std::printf("DIVERGENCE s%llu [%s]: %s\n",
                  static_cast<unsigned long long>(divergence.program_seed),
                  divergence.arm.c_str(), divergence.failure.c_str());
    }
    util::Table table({"programs", "clean", "racy", "sometimes", "thread-runs",
                       "manifested", "sim-runs", "divergences", "checks",
                       "checks/sec", "ms"});
    table.add_row({util::Table::fmt_int(result.programs),
                   util::Table::fmt_int(result.clean_programs),
                   util::Table::fmt_int(result.racy_programs),
                   util::Table::fmt_int(result.sometimes_programs),
                   util::Table::fmt_int(result.thread_runs),
                   util::Table::fmt_int(result.thread_manifested),
                   util::Table::fmt_int(result.sim_runs),
                   util::Table::fmt_int(result.divergences.size()),
                   util::Table::fmt_int(result.checks),
                   util::Table::fmt(result.checks_per_sec(), 0),
                   util::Table::fmt_int(static_cast<std::uint64_t>(ms))});
    std::printf("%s", table.render().c_str());
    std::printf("inline detector: %llu checks over %d rank-thread(s), %.0f checks/sec\n",
                static_cast<unsigned long long>(result.checks), gen.nprocs,
                result.checks_per_sec());

    if (json.out.is_open()) {
      json.out << "{\"tool\":\"dsmr_fuzz\",\"backend\":\"" << util::json_escape(backend)
               << "\",\"first_seed\":" << seeds.first << ",\"seed_count\":" << seeds.count
               << ",\"ranks\":" << gen.nprocs << ",\"thread_reps\":" << thread_reps
               << ",\"programs\":" << result.programs << ",\"clean\":" << result.clean_programs
               << ",\"racy\":" << result.racy_programs
               << ",\"sometimes\":" << result.sometimes_programs
               << ",\"thread_runs\":" << result.thread_runs
               << ",\"thread_manifested\":" << result.thread_manifested
               << ",\"sim_runs\":" << result.sim_runs
               << ",\"sim_manifested\":" << result.sim_manifested
               << ",\"record_replay_checks\":" << result.record_replay_checks
               << ",\"checks\":" << result.checks
               << ",\"checks_per_sec\":" << result.checks_per_sec()
               << ",\"elapsed_ms\":" << ms
               << ",\"divergences\":" << result.divergences.size()
               << ",\"passed\":" << (result.divergences.empty() ? "true" : "false") << "}\n";
      std::printf("wrote %s\n", json.path.c_str());
    }

    if (!result.divergences.empty()) {
      std::printf("BACKEND DIVERGENCE: %zu signature disagreement(s) between the "
                  "threaded backend and its contract/oracle (docs/testing.md)\n",
                  result.divergences.size());
      return 1;
    }
    std::printf("all %llu generated program(s) agree across backends\n",
                static_cast<unsigned long long>(result.programs));
    return 0;
  }

  fuzz::FuzzSweepConfig sweep;
  sweep.base = gen;
  sweep.profile = profile;
  sweep.mode = schedule;
  sweep.seeds = seeds;
  sweep.planted_fraction = planted_fraction;
  sweep.bug_kinds = bug_kinds;
  sweep.threads = threads;
  sweep.verbose = verbose;
  sweep.corpus_dir = corpus_dir;
  sweep.record_dir = record_dir;
  sweep.check.schedule_seeds = schedule_seeds;
  // Parallelism lives on the *program* axis (the independent one); each
  // program's own grid runs serially on its worker.
  sweep.check.threads = 1;
  sweep.check.fault_plans = fault_plans;
  // Same semantics as dsmr_explore: K extra salted variants on top of the
  // always-present base schedule.
  sweep.check.perturbations =
      sim::perturb_variants(perturb_min, perturb_max, perturbations);

  const auto start = std::chrono::steady_clock::now();
  auto elapsed_ms = [&start]() {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  if (budget_ms > 0) {
    sweep.out_of_budget = [&elapsed_ms, budget_ms]() { return elapsed_ms() >= budget_ms; };
  }

  std::printf("--- dsmr_fuzz: seeds [%llu..%llu], profile %s, schedule %s, %llu "
              "schedule seed(s) × %zu variant(s), %d thread(s)%s ---\n",
              static_cast<unsigned long long>(seeds.first),
              static_cast<unsigned long long>(seeds.first + seeds.count - 1),
              profile.c_str(), fuzz::to_string(schedule),
              static_cast<unsigned long long>(schedule_seeds),
              sweep.check.perturbations.size(), threads,
              fault_plans.empty() ? "" : " [FAULT INJECTION ON]");
  for (const auto& plan : fault_plans) {
    std::printf("fault plan: %s (%s)\n", plan.to_string().c_str(),
                plan.wire_enabled()
                    ? (plan.recoverable() ? "recoverable" : "unrecoverable")
                    : "harness hook");
  }

  const auto result = fuzz::run_fuzz_sweep(sweep);

  std::vector<FailureRecord> failures;
  for (const auto& outcome : result.outcomes) {
    if (!outcome.ran) continue;  // past the budget cut.
    if (verbose) {
      std::printf("s%llu [%s] %s\n",
                  static_cast<unsigned long long>(outcome.program_seed),
                  outcome.arm.c_str(), outcome.rendered.c_str());
    }
    if (outcome.failures.empty()) continue;

    // Re-parse the failing program from its canonical text (the sweep keeps
    // it: under coverage scheduling the arm, not just the seed, determined
    // the generation), then minimize the first failure and write its repro.
    std::string parse_error;
    const auto program = fuzz::parse_program(outcome.program_text, &parse_error);
    DSMR_CHECK_MSG(program.has_value(), "failing program does not re-parse: " << parse_error);
    const auto& first = outcome.failures.front();
    FailureRecord record;
    record.program_seed = outcome.program_seed;
    record.arm = outcome.arm;
    record.check = fuzz::check_name(first.check);
    record.detail = first.detail.empty() ? first.check : first.detail;
    record.schedule_seed = first.seed;
    record.perturb = first.perturb;
    // The *failing run's* plan, so the repro carries the full (seed,
    // perturbation, fault-plan) coordinate. The detector-silence hook is
    // grid-global, so it must ride along even when the failing run itself
    // was fault-free.
    record.fault = first.fault;
    if (drop_live_armed) record.fault.drop_live_reports = true;
    record.manifested = outcome.manifested;
    record.schedules = outcome.completed;
    record.ops_before = program->op_count();

    fuzz::Repro repro;
    repro.check = record.check;
    repro.fault = record.fault;
    repro.program_seed = outcome.program_seed;
    repro.schedule_seed = first.seed;
    repro.perturb = first.perturb;
    repro.manifested = outcome.manifested;
    repro.schedules = outcome.completed;
    repro.program = *program;

    // Grid-level generator indictments (see fuzz/harness.cpp) degenerate
    // under single-coordinate minimization: keep those programs intact.
    const bool shrinkable = record.check != "planted-race-vanished" &&
                            record.check != "sometimes-bug-never-manifested";
    if (!no_shrink && shrinkable) {
      fuzz::FuzzCheckOptions one = sweep.check;
      one.first_schedule_seed = first.seed;
      one.schedule_seeds = 1;
      one.perturbations = {first.perturb};
      // Minimize under exactly the repro's coordinate — only the failing
      // run's plan (plus the global hook folded into it above), not the
      // whole sweep's plan list.
      one.fault_plans.clear();
      if (!(record.fault == net::FaultPlan{})) one.fault_plans.push_back(record.fault);
      const auto still_fails = [&one, &record](const fuzz::Program& candidate) {
        const auto v = fuzz::check_program(candidate, one);
        for (const auto& failure : v.failures) {
          if (fuzz::check_name(failure.check) == record.check) return true;
        }
        return false;
      };
      const auto shrunk = fuzz::shrink_program(*program, still_fails);
      repro.program = shrunk.program;
      repro.shrunk = shrunk.changed;
    }
    record.ops_after = repro.program.op_count();

    if (!repro_dir.empty()) {
      const std::string stem =
          "fuzz-s" + std::to_string(outcome.program_seed) + "-" + record.check;
      // With --record-dir on, pair the repro with the ordering log of its
      // exact (shrunk program, seed, perturbation, fault) coordinate; the
      // pair replays byte-identically cross-process (`--replay` verifies).
      if (!record_dir.empty()) {
        repro.record_log = stem + ".dsmrlog";
        record::write_file(repro_dir + "/" + repro.record_log,
                           fuzz::record_coordinate(repro.program, repro.program_seed,
                                                   repro.schedule_seed, repro.perturb,
                                                   repro.fault));
      }
      record.repro_path = repro_dir + "/" + stem + ".repro";
      const std::string text = fuzz::serialize_repro(repro);
      record::write_file(record.repro_path, std::as_bytes(std::span(text)));
    }
    std::printf("FAILURE s%llu [%s]: %s (seed=%llu perturb=%s fault=%s, %zu -> %zu "
                "ops%s%s)\n",
                static_cast<unsigned long long>(outcome.program_seed),
                outcome.arm.c_str(), record.check.c_str(),
                static_cast<unsigned long long>(record.schedule_seed),
                record.perturb.to_string().c_str(), record.fault.to_string().c_str(),
                record.ops_before, record.ops_after,
                record.repro_path.empty() ? "" : ", repro: ",
                record.repro_path.c_str());
    // Surface the quiescence watchdog's stuck-task dump right next to the
    // failure it explains (unexpected-deadlock, fault-not-recovered, ...).
    if (record.detail.rfind("watchdog:", 0) == 0) {
      std::printf("%s\n", record.detail.c_str());
    }
    failures.push_back(std::move(record));
  }

  if (!record_dir.empty()) {
    std::printf("recorded %llu ordering log(s) under %s\n",
                static_cast<unsigned long long>(result.recorded_logs),
                record_dir.c_str());
  }
  util::Table table({"programs", "planted", "clean", "schedules", "fault-runs",
                     "watchdog", "signatures", "failures", "ms"});
  table.add_row({util::Table::fmt_int(result.programs),
                 util::Table::fmt_int(result.planted), util::Table::fmt_int(result.clean),
                 util::Table::fmt_int(result.schedules),
                 util::Table::fmt_int(result.fault_runs),
                 util::Table::fmt_int(result.watchdog_runs),
                 util::Table::fmt_int(result.distinct_signatures),
                 util::Table::fmt_int(failures.size()),
                 util::Table::fmt_int(static_cast<std::uint64_t>(elapsed_ms()))});
  std::printf("%s", table.render().c_str());

  // The taxonomy table: bug kind → programs, manifestation, failures.
  util::Table kinds_table(
      {"kind", "programs", "manifested", "mean-rate", "failures"});
  for (const auto& [kind, stats] : result.kinds) {
    kinds_table.add_row({kind, util::Table::fmt_int(stats.programs),
                         util::Table::fmt_int(stats.manifested_programs),
                         util::Table::fmt(stats.mean_manifestation(), 3),
                         util::Table::fmt_int(stats.failures)});
  }
  std::printf("%s", kinds_table.render().c_str());
  if (!corpus_dir.empty()) {
    std::printf("corpus: %llu new signature(s) appended to %s/signatures.tsv\n",
                static_cast<unsigned long long>(result.corpus_new), corpus_dir.c_str());
  }
  if (result.budget_hit) {
    std::printf("stopped at --budget-ms %lld after %llu program(s)\n",
                static_cast<long long>(budget_ms),
                static_cast<unsigned long long>(result.programs));
  }

  if (json.out.is_open()) {
    std::ofstream& out = json.out;
    out << "{\"tool\":\"dsmr_fuzz\",\"first_seed\":" << seeds.first
        << ",\"seed_count\":" << seeds.count << ",\"profile\":\""
        << util::json_escape(profile) << "\",\"schedule\":\""
        << fuzz::to_string(schedule) << "\",\"ranks\":" << gen.nprocs
        << ",\"schedule_seeds\":" << schedule_seeds
        << ",\"variants\":" << sweep.check.perturbations.size() << ",\"faults\":\"";
    for (std::size_t i = 0; i < fault_plans.size(); ++i) {
      out << (i > 0 ? "; " : "") << util::json_escape(fault_plans[i].to_string());
    }
    out << "\",\"programs\":" << result.programs << ",\"planted\":" << result.planted
        << ",\"clean\":" << result.clean << ",\"schedules\":" << result.schedules
        << ",\"fault_runs\":" << result.fault_runs
        << ",\"watchdog_runs\":" << result.watchdog_runs
        << ",\"signatures\":" << result.distinct_signatures
        << ",\"corpus_new\":" << result.corpus_new << ",\"elapsed_ms\":" << elapsed_ms()
        << ",\"budget_hit\":" << (result.budget_hit ? "true" : "false")
        << ",\"passed\":" << (failures.empty() ? "true" : "false") << ",\"kinds\":[";
    bool first_kind = true;
    for (const auto& [kind, stats] : result.kinds) {
      if (!first_kind) out << ",";
      first_kind = false;
      out << "{\"kind\":\"" << util::json_escape(kind)
          << "\",\"programs\":" << stats.programs
          << ",\"manifested_programs\":" << stats.manifested_programs
          << ",\"manifested_runs\":" << stats.manifested_runs
          << ",\"completed_runs\":" << stats.completed_runs
          << ",\"mean_manifestation\":" << stats.mean_manifestation()
          << ",\"failures\":" << stats.failures << "}";
    }
    out << "],\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      const auto& f = failures[i];
      if (i > 0) out << ",";
      out << "{\"program_seed\":" << f.program_seed << ",\"arm\":\""
          << util::json_escape(f.arm) << "\",\"check\":\""
          << util::json_escape(f.check) << "\",\"detail\":\""
          << util::json_escape(f.detail) << "\",\"schedule_seed\":" << f.schedule_seed
          << ",\"perturb\":\"" << util::json_escape(f.perturb.to_string())
          << "\",\"fault\":\"" << util::json_escape(f.fault.to_string())
          << "\",\"manifested\":" << f.manifested << ",\"schedules\":" << f.schedules
          << ",\"ops_before\":" << f.ops_before << ",\"ops_after\":" << f.ops_after
          << ",\"repro\":\"" << util::json_escape(f.repro_path) << "\"}";
    }
    out << "]}\n";
    std::printf("wrote %s\n", json.path.c_str());
  }

  if (!failures.empty()) {
    std::printf("FUZZ FAILURE: %zu program(s) violated an invariant — replay any "
                "repro with --replay (docs/testing.md)\n",
                failures.size());
    return 1;
  }
  std::printf("all %llu generated program(s) conformant\n",
              static_cast<unsigned long long>(result.programs));
  return 0;
}
