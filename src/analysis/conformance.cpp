#include "analysis/conformance.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <map>
#include <system_error>
#include <set>
#include <sstream>
#include <utility>

#include "analysis/ground_truth.hpp"
#include "baseline/lockset.hpp"
#include "record/recorder.hpp"
#include "record/replay.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"
#include "workload/workloads.hpp"

namespace dsmr::analysis {

const char* to_string(RaceExpectation e) {
  switch (e) {
    case RaceExpectation::kNever: return "never";
    case RaceExpectation::kSometimes: return "sometimes";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Scenario registry
// ---------------------------------------------------------------------------

namespace {

using runtime::World;

std::vector<Scenario> make_builtin_scenarios() {
  std::vector<Scenario> s;
  // Sizes are deliberately small: a conformance grid multiplies every
  // scenario by (seeds × perturbations), so each run must stay ~milliseconds.
  s.push_back({"master_worker",
               "workers put results into one master slot — the paper's §IV.D "
               "benign intentional race",
               RaceExpectation::kSometimes, 2, false, [](World& w) {
                 workload::MasterWorkerConfig c;
                 c.tasks_per_worker = 2;
                 workload::spawn_master_worker(w, c);
               }});
  s.push_back({"stencil", "barrier-synchronized 1-D Jacobi halo exchange",
               RaceExpectation::kNever, 2, false, [](World& w) {
                 workload::StencilConfig c;
                 c.cells_per_rank = 6;
                 c.iters = 3;
                 workload::spawn_stencil(w, c);
               }});
  s.push_back({"stencil_buggy", "stencil with every barrier dropped",
               RaceExpectation::kSometimes, 2, false, [](World& w) {
                 workload::StencilConfig c;
                 c.cells_per_rank = 6;
                 c.iters = 3;
                 c.buggy = true;
                 workload::spawn_stencil(w, c);
               }});
  s.push_back({"stencil_sparse",
               "stencil barrier-synchronized only every 2nd iteration — the "
               "halo race is on every schedule; whether the detector reports "
               "it is not (only the latest access is compared)",
               RaceExpectation::kSometimes, 2, false, [](World& w) {
                 workload::StencilConfig c;
                 c.cells_per_rank = 6;
                 c.iters = 4;
                 c.barrier_period = 2;
                 workload::spawn_stencil(w, c);
               }});
  s.push_back({"histogram_locked",
               "remote read-modify-write on shared bins under NIC area locks",
               RaceExpectation::kNever, 1, false, [](World& w) {
                 workload::HistogramConfig c;
                 c.bins = 8;
                 c.increments_per_rank = 6;
                 c.locked = true;
                 workload::spawn_histogram(w, c);
               }});
  s.push_back({"histogram",
               "unlocked remote read-modify-write — lost updates under "
               "contention, manifestation is schedule luck",
               RaceExpectation::kSometimes, 1, false, [](World& w) {
                 workload::HistogramConfig c;
                 c.bins = 8;
                 c.increments_per_rank = 6;
                 workload::spawn_histogram(w, c);
               }});
  s.push_back({"pipeline",
               "token ring ordered purely by signals and backpressure — "
               "race-free without barriers or locks",
               RaceExpectation::kNever, 2, false, [](World& w) {
                 workload::PipelineConfig c;
                 c.tokens = 6;
                 workload::spawn_pipeline(w, c);
               }});
  s.push_back({"pipeline_nobackpressure", "token ring with the credits removed",
               RaceExpectation::kSometimes, 2, false, [](World& w) {
                 workload::PipelineConfig c;
                 c.tokens = 6;
                 c.backpressure = false;
                 workload::spawn_pipeline(w, c);
               }});
  s.push_back({"pipeline_window2",
               "token ring whose producers run 2 tokens ahead of the acks — "
               "the overwrite race is on every schedule; which accesses the "
               "detector reports varies (only the latest access is compared)",
               RaceExpectation::kSometimes, 2, false, [](World& w) {
                 workload::PipelineConfig c;
                 c.tokens = 6;
                 c.ack_window = 2;
                 workload::spawn_pipeline(w, c);
               }});
  s.push_back({"random", "mixed puts/gets over shared areas, no synchronization",
               RaceExpectation::kSometimes, 1, false, [](World& w) {
                 workload::RandomConfig c;
                 c.areas = 4;
                 c.ops_per_proc = 12;
                 c.write_fraction = 0.5;
                 workload::spawn_random(w, c);
               }});
  s.push_back({"random_locked",
               "the same mixed ops with every access wrapped in its area lock",
               RaceExpectation::kNever, 1, false, [](World& w) {
                 workload::RandomConfig c;
                 c.areas = 4;
                 c.ops_per_proc = 12;
                 c.write_fraction = 0.5;
                 c.lock_fraction = 1.0;
                 workload::spawn_random(w, c);
               }});
  return s;
}

}  // namespace

const std::vector<Scenario>& builtin_scenarios() {
  static const std::vector<Scenario> scenarios = make_builtin_scenarios();
  return scenarios;
}

const Scenario* find_scenario(const std::string& name) {
  for (const auto& scenario : builtin_scenarios()) {
    if (scenario.name == name) return &scenario;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Per-run differential checks
// ---------------------------------------------------------------------------

namespace {

/// The ids of `flagged` that name writes.
std::set<std::uint64_t> writes_only(const record::Log& log,
                                    const std::set<std::uint64_t>& flagged) {
  std::set<std::uint64_t> writes;
  for (const auto id : flagged) {
    if (record::access_kind(log.events[id - 1].kind) == core::AccessKind::kWrite) {
      writes.insert(id);
    }
  }
  return writes;
}

/// Logical access names ("r<rank>.<idx>") indexed by access id. Per-rank
/// issue order is program order, so these identities — unlike the raw ids,
/// which follow the global log order — line up across fault variants of
/// the same (program, seed, perturbation).
std::vector<std::string> logical_names(const record::Log& log) {
  std::vector<std::string> names(log.events.size() + 1);
  std::map<std::uint64_t, std::uint64_t> per_rank;
  for (std::size_t i = 0; i < log.events.size(); ++i) {
    const record::Event& e = log.events[i];
    if (!record::opens_access(e.kind)) continue;
    std::ostringstream name;
    name << "r" << e.a << "." << per_rank[e.a]++;
    names[i + 1] = name.str();
  }
  return names;
}

/// Canonical text of a pair set under logical names. Canonicalized twice:
/// within each pair (a RacePair's (first, second) follows raw-id log
/// order, so the same logical pair can arrive flipped between fault
/// variants) and across the set (the input is ordered by raw ids, whose
/// order over the same logical pairs likewise differs between variants).
std::string logical_pairs(const std::set<RacePair>& pairs,
                          const std::vector<std::string>& names) {
  std::vector<std::string> named;
  named.reserve(pairs.size());
  for (const auto& pair : pairs) {
    std::string a = names[pair.first];
    std::string b = names[pair.second];
    if (b < a) std::swap(a, b);
    named.push_back(a + "x" + b);
  }
  std::sort(named.begin(), named.end());
  std::ostringstream out;
  for (const auto& name : named) out << name << " ";
  return out.str();
}

/// The single-clock fold's pair set is deliberately NOT part of the
/// signature: §IV.D's merged clock makes its read verdicts approximate in
/// both directions, and which read pairs it flags depends on the *apply
/// order* at the home — which retransmission delay legitimately reshuffles.
/// (Empirically: a clean program's single-clock read–read false positive
/// appears or vanishes with a single retried message.) Its write verdicts
/// need no separate leg — the cross-mode-writes invariant pins them to the
/// dual set, which is signed.
std::string verdict_signature(const record::Log& log, const GroundTruth& truth,
                              const core::RaceLog& races, const Verdicts& dual) {
  const auto names = logical_names(log);
  std::ostringstream out;
  out << "truth{" << logical_pairs(truth.pairs, names) << "} reported{"
      << logical_pairs(verdicts_of(races.reports()).pairs, names) << "} dual{"
      << logical_pairs(dual.pairs, names) << "} areas{";
  for (const auto& [home, area] : truth.racy_areas) out << home << ":" << area << " ";
  out << "}";
  return out.str();
}

}  // namespace

RunVerdicts check_run(runtime::World& world, const runtime::RunReport& report) {
  RunVerdicts v;
  v.seed = world.config().seed;
  v.perturb = world.config().perturb;
  v.fault = world.config().fault;
  v.completed = report.completed;
  v.hit_event_cap = report.hit_event_cap;
  v.diagnostic = report.diagnostic;
  v.live_reports = report.race_count;
  // A deadlocked run has no applied clocks to fold; the grid layer
  // decides whether the deadlock itself is a failure.
  if (!report.completed) return v;

  const record::Log& log = world.log();
  const auto mode = world.config().mode;
  auto fail = [&v](const std::string& check, const std::string& detail) {
    v.failed_checks.push_back(check + ": " + detail);
  };

  const auto truth = compute_ground_truth(log);
  v.truth_pairs = truth.pairs.size();
  v.truth_areas = truth.racy_areas.size();

  // Invariant 1 — the epoch fast path is bit-identical to the full-vector-
  // clock oracle, in both detector modes, on this schedule's log: each
  // fold's reports against the oracle's verdict on every access it folds.
  Verdicts dual_fast, single_fast;
  for (const auto fold_mode :
       {core::DetectorMode::kDualClock, core::DetectorMode::kSingleClock}) {
    Verdicts oracle;
    const record::ReplayResult folded =
        record::replay_fold(log, fold_mode, [&](const record::AppliedAccess& access) {
          add_oracle_verdict(oracle, fold_mode, access);
        });
    const Verdicts fast = verdicts_of(folded.reports);
    if (!folded.ok() || fast != oracle) {
      std::ostringstream detail;
      detail << "mode=" << core::to_string(fold_mode) << " fast flagged "
             << fast.flagged.size() << " vs oracle " << oracle.flagged.size();
      if (!folded.ok()) detail << ", " << folded.error;
      fail("fast-path-vs-oracle", detail.str());
    }
    if (fold_mode == mode) {
      v.fast_flagged = fast.flagged.size();
      v.oracle_flagged = oracle.flagged.size();
    }
    (fold_mode == core::DetectorMode::kDualClock ? dual_fast : single_fast) = fast;
  }
  v.dual_flagged = dual_fast.flagged.size();
  v.single_flagged = single_fast.flagged.size();

  if (mode != core::DetectorMode::kOff) {
    // Invariant 2 — the fold of the run's own mode reproduces the live
    // reports exactly (pairs and flagged accesses: both name accesses by
    // log index). The run's mode is one of the two folds above.
    const Verdicts& replay =
        mode == core::DetectorMode::kDualClock ? dual_fast : single_fast;
    if (replay != verdicts_of(world.races().reports())) {
      std::ostringstream detail;
      detail << "live " << world.races().count() << " reports, replay flagged "
             << replay.flagged.size();
      fail("live-vs-replay", detail.str());
    }
  }

  if (mode == core::DetectorMode::kDualClock) {
    // Invariant 3 — the paper's structural accuracy guarantee: every
    // dual-clock report is a true race. (Area recall is tracked, not
    // checked: the online scheme compares only against the latest access,
    // so an unlucky apply order can hide a racy area entirely.)
    const auto accuracy = evaluate(truth, world.races());
    if (accuracy.precision() < 1.0) {
      std::ostringstream detail;
      detail << accuracy.true_reports << "/" << accuracy.reported_pairs << " reports true";
      fail("precision", detail.str());
    }
    v.area_recall = accuracy.area_recall();
  }

  // Invariant 5 — cross-mode agreement on writes: both modes compare writes
  // against V(x), so their write verdicts must be identical (reads genuinely
  // differ in both directions, §IV.D — not checked).
  if (writes_only(log, dual_fast.flagged) != writes_only(log, single_fast.flagged)) {
    fail("cross-mode-writes", "dual and single clock disagree on a write verdict");
  }

  // Measured comparison (not an invariant): the Eraser-style lockset
  // baseline vs ground truth. Divergence is expected on message-ordered
  // programs; the grid layer tallies it.
  const auto lockset = baseline::LocksetDetector::analyze(log);
  v.lockset_warnings = lockset.warnings.size();
  for (const auto& area : truth.racy_areas) {
    if (lockset.flagged_areas.count(area) == 0) {
      v.lockset_covers_truth = false;
      break;
    }
  }

  v.signature = verdict_signature(log, truth, world.races(), dual_fast);
  return v;
}

// ---------------------------------------------------------------------------
// The grid
// ---------------------------------------------------------------------------

namespace {

/// Deterministic, filesystem-safe name for one schedule's witness log.
std::string schedule_stem(const std::string& scenario, std::uint64_t seed,
                          const sim::PerturbConfig& perturb,
                          const net::FaultPlan& fault) {
  std::ostringstream out;
  out << scenario << "-seed" << seed;
  if (perturb.enabled()) {
    out << "-skew" << perturb.min_skew_ns << "-" << perturb.max_skew_ns << "-salt"
        << perturb.salt;
  }
  if (!(fault == net::FaultPlan{})) {
    out << "-fault";
    for (const char c : fault.to_string()) {
      out << (std::isalnum(static_cast<unsigned char>(c)) ? c : '-');
    }
  }
  return out.str();
}

/// Runs `scenario` on one grid coordinate, recorded, and cross-checks it;
/// `log` receives the serialized ordering log.
RunVerdicts run_coordinate(const Scenario& scenario, const runtime::WorldConfig& config,
                           std::vector<std::byte>& log) {
  runtime::World world(config);
  world.record();
  scenario.spawn(world);
  const auto report = world.run();
  RunVerdicts verdicts = check_run(world, report);
  log = world.log().serialize();
  return verdicts;
}

}  // namespace

std::string Divergence::describe() const {
  std::ostringstream out;
  out << scenario << " seed=" << seed << " perturb=" << perturb.to_string();
  if (!(fault == net::FaultPlan{})) out << " fault=\"" << fault.to_string() << "\"";
  out << " — " << check;
  if (!detail.empty()) out << " (" << detail << ")";
  if (!witness.empty()) out << " [witness: " << witness << "]";
  return out.str();
}

ConformanceReport run_conformance(const Scenario& scenario,
                                  const ConformanceOptions& options) {
  DSMR_REQUIRE(options.seeds > 0, "conformance grid needs at least one seed");
  DSMR_REQUIRE(!options.perturbations.empty(),
               "conformance grid needs at least one perturbation variant");
  DSMR_REQUIRE(options.base.nprocs >= scenario.min_ranks,
               "scenario '" << scenario.name << "' needs ≥ " << scenario.min_ranks
                            << " ranks, got " << options.base.nprocs);

  // Plan index 0 is always the fault-free base; fault variants follow
  // plan-minor so every base run directly precedes the runs compared to it.
  std::vector<net::FaultPlan> plans(1);
  for (const auto& plan : options.fault_plans) {
    DSMR_REQUIRE(plan.wire_enabled(), "conformance fault plan '" << plan.to_string()
                                                                 << "' injects nothing");
    plans.push_back(plan);
  }
  const std::uint64_t nplans = plans.size();
  const std::uint64_t variants = options.perturbations.size();
  const std::uint64_t total = options.seeds * variants * nplans;
  DSMR_REQUIRE(total / (variants * nplans) == options.seeds,
               "conformance grid size overflows: " << options.seeds << " seeds × "
                                                   << variants << " variants × "
                                                   << nplans << " plans");

  // Fan out: one World per (seed, perturbation, plan), each job writing its
  // pre-assigned slot so aggregation order never depends on thread timing.
  std::vector<RunVerdicts> runs(total);
  util::parallel_for(total, options.threads, [&](std::uint64_t index) {
    runtime::WorldConfig config = options.base;
    const std::uint64_t point = index / nplans;
    config.seed = options.first_seed + point / variants;
    config.perturb = options.perturbations[point % variants];
    config.fault = plans[index % nplans];
    // Invariant 6 — record→replay: the ordering log this run emits, taken
    // through the full serialize→parse→fold pipeline, must reproduce the
    // live verdict signature on this exact coordinate (every coordinate,
    // every wire layout).
    std::vector<std::byte> log;
    runs[index] = run_coordinate(scenario, config, log);
    const std::string mismatch = record::check_record_replay_bytes(log);
    if (!mismatch.empty()) {
      runs[index].failed_checks.push_back("record-replay: " + mismatch);
    }
  });

  ConformanceReport summary;
  summary.scenario = scenario.name;
  summary.expect = scenario.expect;
  summary.runs = std::move(runs);
  summary.base_schedules = options.seeds * variants;
  summary.record_replay_checked = total;

  auto diverge = [&summary, &scenario](const RunVerdicts& run, std::string check,
                                       std::string detail) {
    summary.disagreements.push_back(Divergence{scenario.name, run.seed, run.perturb,
                                               run.fault, std::move(check),
                                               std::move(detail), ""});
  };
  auto split_failed_checks = [&diverge](const RunVerdicts& run) {
    for (const auto& check : run.failed_checks) {
      // failed_checks entries are "name: detail"; split them so the JSON
      // artifact's check field is a stable name like the grid-level checks.
      const auto colon = check.find(": ");
      if (colon == std::string::npos) {
        diverge(run, check, "");
      } else {
        diverge(run, check.substr(0, colon), check.substr(colon + 2));
      }
    }
  };

  for (std::uint64_t index = 0; index < summary.runs.size(); ++index) {
    const auto& run = summary.runs[index];
    if (index % nplans != 0) continue;  // fault runs handled below.
    if (run.live_reports > 0) ++summary.runs_with_reports;
    if (run.truth_pairs > 0) ++summary.runs_with_truth;
    if (!run.completed) {
      ++summary.incomplete_runs;
      if (!run.diagnostic.empty()) ++summary.watchdog_runs;
      if (!scenario.may_deadlock) diverge(run, "unexpected-deadlock", run.diagnostic);
      // check_run bails early on incomplete runs, but the record→replay
      // invariant still applies (the footer carries the stuck verdict).
      split_failed_checks(run);
      continue;
    }
    split_failed_checks(run);
    if (scenario.expect == RaceExpectation::kNever &&
        (run.live_reports > 0 || run.truth_pairs > 0)) {
      std::ostringstream detail;
      detail << run.live_reports << " reports, " << run.truth_pairs
             << " truth pairs in a race-free scenario";
      diverge(run, "race-in-clean-scenario", detail.str());
    }
    if (!run.lockset_covers_truth) ++summary.lockset_divergences;
    summary.min_area_recall = std::min(summary.min_area_recall, run.area_recall);
  }

  // The fault invariants: each fault run against its own base.
  for (std::uint64_t index = 0; index < summary.runs.size(); ++index) {
    if (index % nplans == 0) continue;
    const auto& run = summary.runs[index];
    const auto& base = summary.runs[index - index % nplans];
    ++summary.fault_runs;
    if (!run.diagnostic.empty()) ++summary.watchdog_runs;

    if (run.hit_event_cap) {
      // Neither plan class may spin forever: recoverable plans must deliver,
      // unrecoverable plans must give up (retry cap) and drain.
      diverge(run, "fault-hang", "event cap hit under fault plan");
      continue;
    }
    if (run.fault.recoverable()) {
      if (!run.completed) {
        if (base.completed) diverge(run, "fault-not-recovered", run.diagnostic);
        // Base deadlocked too (may_deadlock scenario): nothing to hold the
        // fault run to — but the record→replay invariant still applies.
        split_failed_checks(run);
        continue;
      }
      split_failed_checks(run);
      const bool transparent = base.completed && run.signature == base.signature;
      if (transparent) ++summary.fault_transparent_runs;
      if (options.expect_fault_transparency &&
          scenario.expect == RaceExpectation::kNever && base.completed &&
          !transparent) {
        std::ostringstream detail;
        detail << "verdicts differ from fault-free run: base " << base.live_reports
               << " reports/" << base.truth_pairs << " truth pairs, faulted "
               << run.live_reports << " reports/" << run.truth_pairs
               << " truth pairs";
        diverge(run, "fault-transparency", detail.str());
      }
    } else {
      if (run.completed) {
        // The fault never bit (e.g. crash scheduled past quiescence) — fine,
        // but the verdicts must then be the fault-free ones.
        split_failed_checks(run);
        if (base.completed && run.signature != base.signature) {
          diverge(run, "unclean-failure",
                  "unrecoverable plan completed with different verdicts");
        }
      } else {
        if (run.diagnostic.empty()) {
          diverge(run, "silent-non-quiescence",
                  "unrecoverable plan stopped without a watchdog diagnostic");
        }
        split_failed_checks(run);
      }
    }
  }

  // Every disagreement gets a replayable witness: re-run the exact
  // coordinate serially, recorded, and write its ordering log.
  if (!options.witness_dir.empty() && !summary.disagreements.empty()) {
    // The artifact must exist exactly when a disagreement does: create the
    // directory and fail loudly on any write error.
    std::error_code ec;
    std::filesystem::create_directories(options.witness_dir, ec);
    DSMR_REQUIRE(!ec, "cannot create witness dir " << options.witness_dir << ": "
                                                   << ec.message());
    std::map<std::string, std::string> exported;  ///< stem → witness path.
    for (auto& divergence : summary.disagreements) {
      runtime::WorldConfig config = options.base;
      config.seed = divergence.seed;
      config.perturb = divergence.perturb;
      config.fault = divergence.fault;
      const std::string stem = schedule_stem(scenario.name, divergence.seed,
                                             divergence.perturb, divergence.fault);
      auto it = exported.find(stem);
      if (it == exported.end()) {
        std::vector<std::byte> log;
        run_coordinate(scenario, config, log);
        const std::string path = options.witness_dir + "/" + stem + ".dsmrlog";
        record::write_file(path, log);
        it = exported.emplace(stem, path).first;
      }
      divergence.witness = it->second;
    }
  }
  return summary;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

std::string ConformanceReport::render() const {
  std::ostringstream out;
  out << scenario << " (expect " << to_string(expect) << "): " << runs.size()
      << " schedules, " << runs_with_reports << " with reports ("
      << static_cast<int>(manifestation_rate() * 100.0) << "%), " << runs_with_truth
      << " with true races, " << incomplete_runs << " deadlocked, "
      << lockset_divergences << " lockset divergences, min area recall "
      << min_area_recall;
  if (fault_runs > 0) {
    out << ", " << fault_runs << " fault runs (" << fault_transparent_runs
        << " transparent, " << watchdog_runs << " watchdog)";
  }
  if (record_replay_checked > 0) {
    out << ", " << record_replay_checked << " record-replay checked";
  }
  out << ", " << disagreements.size() << " disagreements";
  for (const auto& divergence : disagreements) {
    out << "\n  DISAGREEMENT " << divergence.describe();
  }
  return out.str();
}

void ConformanceReport::write_json(std::ostream& out) const {
  out << "{\"scenario\":\"" << util::json_escape(scenario) << "\",\"expect\":\""
      << to_string(expect) << "\",\"schedules\":" << runs.size()
      << ",\"with_reports\":" << runs_with_reports << ",\"with_truth\":" << runs_with_truth
      << ",\"incomplete\":" << incomplete_runs
      << ",\"manifestation_rate\":" << manifestation_rate()
      << ",\"lockset_divergences\":" << lockset_divergences
      << ",\"base_schedules\":" << base_schedules << ",\"fault_runs\":" << fault_runs
      << ",\"fault_transparent_runs\":" << fault_transparent_runs
      << ",\"watchdog_runs\":" << watchdog_runs
      << ",\"record_replay_checked\":" << record_replay_checked
      << ",\"min_area_recall\":" << min_area_recall << ",\"passed\":"
      << (passed() ? "true" : "false") << ",\"disagreements\":[";
  for (std::size_t i = 0; i < disagreements.size(); ++i) {
    const auto& d = disagreements[i];
    if (i > 0) out << ",";
    out << "{\"seed\":" << d.seed << ",\"perturb\":\"" << util::json_escape(d.perturb.to_string())
        << "\",\"fault\":\"" << util::json_escape(d.fault.to_string())
        << "\",\"check\":\"" << util::json_escape(d.check) << "\",\"detail\":\""
        << util::json_escape(d.detail) << "\",\"witness\":\""
        << util::json_escape(d.witness) << "\"}";
  }
  out << "],\"runs\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    if (i > 0) out << ",";
    out << "{\"seed\":" << r.seed << ",\"perturb\":\""
        << util::json_escape(r.perturb.to_string()) << "\",\"fault\":\""
        << util::json_escape(r.fault.to_string()) << "\",\"completed\":"
        << (r.completed ? "true" : "false") << ",\"watchdog\":"
        << (r.diagnostic.empty() ? "false" : "true") << ",\"reports\":" << r.live_reports
        << ",\"truth_pairs\":" << r.truth_pairs << ",\"truth_areas\":" << r.truth_areas
        << ",\"fast_flagged\":" << r.fast_flagged
        << ",\"oracle_flagged\":" << r.oracle_flagged
        << ",\"dual_flagged\":" << r.dual_flagged
        << ",\"single_flagged\":" << r.single_flagged
        << ",\"lockset_warnings\":" << r.lockset_warnings << ",\"conformant\":"
        << (r.failed_checks.empty() ? "true" : "false") << "}";
  }
  out << "]}";
}

}  // namespace dsmr::analysis
