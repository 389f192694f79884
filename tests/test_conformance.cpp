// Tests for schedule exploration at scale: the thread pool, the parallel
// conformance grid (bit-identical to serial, replayable coordinates), the
// delay-bound perturbation layer, and the differential conformance harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <set>
#include <sstream>
#include <vector>

#include "analysis/conformance.hpp"
#include "record/log.hpp"
#include "record/replay.hpp"
#include "runtime/process.hpp"
#include "runtime/world.hpp"
#include "util/thread_pool.hpp"
#include "workload/workloads.hpp"

namespace dsmr::analysis {
namespace {

using runtime::World;
using runtime::WorldConfig;

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedJob) {
  std::atomic<int> counter{0};
  {
    util::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 100);
  }
}

TEST(ThreadPool, WaitIdleThenReuse) {
  util::ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, ParallelForCoversEachIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  util::parallel_for(hits.size(), 4, [&hits](std::uint64_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ParallelForSerialFallbackRunsInline) {
  std::vector<int> order;
  util::parallel_for(5, 1, [&order](std::uint64_t i) {
    order.push_back(static_cast<int>(i));  // unsynchronized: must be inline.
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(util::ThreadPool::hardware_threads(), 1);
}

// ---------------------------------------------------------------------------
// The grid — parallel bit-identical to serial, coordinates replayable
// ---------------------------------------------------------------------------

WorkloadFn contended_histogram() {
  return [](World& world) {
    workload::HistogramConfig wl;
    wl.bins = 4;
    wl.increments_per_rank = 8;
    workload::spawn_histogram(world, wl);
  };
}

/// A racy workload declared `sometimes`: its reports are tracked, not failed.
Scenario sometimes_scenario(WorkloadFn spawn) {
  Scenario scenario;
  scenario.name = "sometimes";
  scenario.expect = RaceExpectation::kSometimes;
  scenario.min_ranks = 1;
  scenario.spawn = std::move(spawn);
  return scenario;
}

/// One unrecorded World at a grid coordinate: what a user replaying a
/// reported (seed, perturbation) runs.
runtime::RunReport run_at(const WorldConfig& base, std::uint64_t seed,
                          const sim::PerturbConfig& perturb, const WorkloadFn& workload) {
  WorldConfig config = base;
  config.seed = seed;
  config.perturb = perturb;
  World world(config);
  workload(world);
  return world.run();
}

void expect_runs_identical(const ConformanceReport& a, const ConformanceReport& b) {
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    const RunVerdicts& x = a.runs[i];
    const RunVerdicts& y = b.runs[i];
    EXPECT_EQ(x.seed, y.seed) << "slot " << i;
    EXPECT_EQ(x.perturb, y.perturb) << "slot " << i;
    EXPECT_EQ(x.fault, y.fault) << "slot " << i;
    EXPECT_EQ(x.completed, y.completed) << "slot " << i;
    EXPECT_EQ(x.hit_event_cap, y.hit_event_cap) << "slot " << i;
    EXPECT_EQ(x.diagnostic, y.diagnostic) << "slot " << i;
    EXPECT_EQ(x.signature, y.signature) << "slot " << i;
    EXPECT_EQ(x.live_reports, y.live_reports) << "slot " << i;
    EXPECT_EQ(x.truth_pairs, y.truth_pairs) << "slot " << i;
    EXPECT_EQ(x.truth_areas, y.truth_areas) << "slot " << i;
    EXPECT_EQ(x.fast_flagged, y.fast_flagged) << "slot " << i;
    EXPECT_EQ(x.oracle_flagged, y.oracle_flagged) << "slot " << i;
    EXPECT_EQ(x.dual_flagged, y.dual_flagged) << "slot " << i;
    EXPECT_EQ(x.single_flagged, y.single_flagged) << "slot " << i;
    EXPECT_EQ(x.lockset_warnings, y.lockset_warnings) << "slot " << i;
    EXPECT_EQ(x.lockset_covers_truth, y.lockset_covers_truth) << "slot " << i;
    // Doubles compared exactly: both sides must be the same computation.
    EXPECT_EQ(x.area_recall, y.area_recall) << "slot " << i;
    EXPECT_EQ(x.failed_checks, y.failed_checks) << "slot " << i;
  }
  EXPECT_EQ(a.runs_with_reports, b.runs_with_reports);
  EXPECT_EQ(a.runs_with_truth, b.runs_with_truth);
  EXPECT_EQ(a.incomplete_runs, b.incomplete_runs);
  EXPECT_EQ(a.lockset_divergences, b.lockset_divergences);
  EXPECT_EQ(a.record_replay_checked, b.record_replay_checked);
  EXPECT_EQ(a.min_area_recall, b.min_area_recall);
  EXPECT_EQ(a.disagreements.size(), b.disagreements.size());
}

TEST(ParallelGrid, BitIdenticalToSerialOnFourThreads) {
  const Scenario scenario = sometimes_scenario(contended_histogram());
  ConformanceOptions options;  // default variants: the base schedule only.
  options.base.nprocs = 4;
  options.seeds = 12;
  options.threads = 1;
  const auto serial = run_conformance(scenario, options);
  options.threads = 4;
  const auto parallel = run_conformance(scenario, options);
  ASSERT_EQ(serial.runs.size(), 12u);
  for (const auto& run : serial.runs) EXPECT_FALSE(run.perturb.enabled());
  EXPECT_TRUE(serial.passed()) << serial.render();
  EXPECT_GT(serial.runs_with_reports, 0u);
  expect_runs_identical(serial, parallel);
}

TEST(ParallelGrid, BitIdenticalWithPerturbationVariants) {
  const Scenario scenario = sometimes_scenario(contended_histogram());
  ConformanceOptions options;
  options.base.nprocs = 3;
  options.first_seed = 5;
  options.seeds = 6;
  options.perturbations = {sim::PerturbConfig{}, sim::PerturbConfig{0, 3'000, 1},
                           sim::PerturbConfig{500, 5'000, 2}};
  options.threads = 1;
  const auto serial = run_conformance(scenario, options);
  options.threads = 4;
  const auto parallel = run_conformance(scenario, options);
  EXPECT_EQ(serial.runs.size(), 18u);  // 6 seeds × 3 variants.
  expect_runs_identical(serial, parallel);
}

TEST(Grid, FirstRacyCoordinateReplaysToTheSameLiveReportCount) {
  const Scenario scenario = sometimes_scenario([](World& world) {
    workload::RandomConfig wl;
    wl.areas = 2;
    wl.ops_per_proc = 15;
    wl.write_fraction = 0.8;
    workload::spawn_random(world, wl);
  });
  ConformanceOptions options;
  options.base.nprocs = 4;
  options.first_seed = 10;
  options.seeds = 5;
  const auto report = run_conformance(scenario, options);
  EXPECT_TRUE(report.passed()) << report.render();
  const auto first_racy = std::find_if(report.runs.begin(), report.runs.end(),
                                       [](const RunVerdicts& run) { return run.live_reports > 0; });
  ASSERT_NE(first_racy, report.runs.end());
  // Replaying the coordinate, unrecorded, reproduces the exact report count.
  const auto replay = [&] {
    return run_at(options.base, first_racy->seed, first_racy->perturb, scenario.spawn)
        .race_count;
  };
  EXPECT_EQ(replay(), first_racy->live_reports);
  EXPECT_EQ(replay(), replay());
}

TEST(Grid, DeadlockingScheduleIsCountedNotFailedWhenAllowed) {
  Scenario scenario;
  scenario.name = "lock_order_inversion";
  scenario.expect = RaceExpectation::kSometimes;
  scenario.may_deadlock = true;
  scenario.spawn = [](World& world) {
    const auto a = world.alloc(0, 8, "a");
    const auto b = world.alloc(1, 8, "b");
    world.spawn(0, [a, b](runtime::Process& p) -> sim::Task {
      co_await p.lock(a);
      co_await p.compute(10'000);
      co_await p.lock(b);
      co_await p.unlock(b);
      co_await p.unlock(a);
    });
    world.spawn(1, [a, b](runtime::Process& p) -> sim::Task {
      co_await p.lock(b);
      co_await p.compute(10'000);
      co_await p.lock(a);
      co_await p.unlock(a);
      co_await p.unlock(b);
    });
  };
  ConformanceOptions options;
  options.base.nprocs = 2;
  options.seeds = 3;
  const auto report = run_conformance(scenario, options);
  EXPECT_EQ(report.incomplete_runs, 3u);
  EXPECT_TRUE(report.passed()) << report.render();
}

// ---------------------------------------------------------------------------
// Delay-bound perturbation
// ---------------------------------------------------------------------------

TEST(Perturbation, DisabledConfigIsBitIdenticalToBaseline) {
  WorldConfig base;
  base.nprocs = 4;
  const auto baseline = run_at(base, 7, sim::PerturbConfig{}, contended_histogram());
  // An explicitly-disabled perturbation (max == 0) must not shift anything:
  // the RNG is never consulted.
  const auto disabled = run_at(base, 7, sim::PerturbConfig{0, 0, 99}, contended_histogram());
  EXPECT_EQ(baseline.end_time, disabled.end_time);
  EXPECT_EQ(baseline.engine_events, disabled.engine_events);
  EXPECT_EQ(baseline.race_count, disabled.race_count);
}

TEST(Perturbation, SameCoordinateReplaysDeterministically) {
  WorldConfig base;
  base.nprocs = 4;
  const sim::PerturbConfig perturb{100, 6'000, 3};
  const auto first = run_at(base, 11, perturb, contended_histogram());
  const auto second = run_at(base, 11, perturb, contended_histogram());
  EXPECT_EQ(first.end_time, second.end_time);
  EXPECT_EQ(first.engine_events, second.engine_events);
  EXPECT_EQ(first.race_count, second.race_count);
}

TEST(Perturbation, SaltsExploreDistinctSchedules) {
  WorldConfig base;
  base.nprocs = 4;
  const auto baseline = run_at(base, 3, sim::PerturbConfig{}, contended_histogram());
  // Across several salts, at least one perturbed run must land on a
  // different schedule (virtual end time is a cheap fingerprint — skew
  // shifts delivery times even when the interleaving survives).
  bool any_differs = false;
  for (std::uint64_t salt = 1; salt <= 4 && !any_differs; ++salt) {
    const auto perturbed =
        run_at(base, 3, sim::PerturbConfig{0, 5'000, salt}, contended_histogram());
    any_differs = perturbed.end_time != baseline.end_time;
  }
  EXPECT_TRUE(any_differs);
}

TEST(Perturbation, SkewBoundsAreRespected) {
  sim::Perturbator perturbator(sim::PerturbConfig{200, 700, 1}, /*world_seed=*/42,
                               /*stream=*/0);
  for (int i = 0; i < 1000; ++i) {
    const auto skew = perturbator.skew();
    EXPECT_GE(skew, 200);
    EXPECT_LE(skew, 700);
  }
  sim::Perturbator disabled;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(disabled.skew(), 0);
}

TEST(Perturbation, WidensTheExploredScheduleSpace) {
  // The whole point of the layer: one seed range, more distinct schedules.
  WorldConfig base;
  base.nprocs = 4;
  std::set<std::pair<sim::Time, std::uint64_t>> fingerprints;
  const auto workload = contended_histogram();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto report = run_at(base, seed, {}, workload);
    fingerprints.insert({report.end_time, report.engine_events});
  }
  const auto base_count = fingerprints.size();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (std::uint64_t salt = 1; salt <= 2; ++salt) {
      const auto report = run_at(base, seed, sim::PerturbConfig{0, 8'000, salt}, workload);
      fingerprints.insert({report.end_time, report.engine_events});
    }
  }
  EXPECT_GT(fingerprints.size(), base_count);
}

// ---------------------------------------------------------------------------
// Differential conformance harness
// ---------------------------------------------------------------------------

ConformanceOptions small_grid(int nprocs = 4) {
  ConformanceOptions options;
  options.base.nprocs = nprocs;
  options.seeds = 6;
  options.threads = 2;
  options.perturbations = {sim::PerturbConfig{}, sim::PerturbConfig{0, 4'000, 1}};
  return options;
}

TEST(Conformance, RegistryNamesAreUniqueAndFindable) {
  std::set<std::string> names;
  for (const auto& scenario : builtin_scenarios()) {
    EXPECT_TRUE(names.insert(scenario.name).second) << scenario.name;
    EXPECT_EQ(find_scenario(scenario.name), &scenario);
    EXPECT_TRUE(scenario.spawn != nullptr);
  }
  EXPECT_EQ(find_scenario("no_such_scenario"), nullptr);
  EXPECT_GE(names.size(), 10u);
}

TEST(Conformance, CleanScenariosConformAndNeverManifest) {
  for (const char* name : {"stencil", "histogram_locked", "pipeline", "random_locked"}) {
    const auto* scenario = find_scenario(name);
    ASSERT_NE(scenario, nullptr) << name;
    const auto report = run_conformance(*scenario, small_grid());
    EXPECT_TRUE(report.passed()) << report.render();
    EXPECT_EQ(report.runs_with_reports, 0u) << name;
    EXPECT_EQ(report.runs_with_truth, 0u) << name;
    EXPECT_EQ(report.incomplete_runs, 0u) << name;
  }
}

TEST(Conformance, KnownBuggyVariantsManifestWithZeroDisagreements) {
  // The acceptance gate: detectors and oracles agree on every schedule,
  // while each shipped bug manifests in at least one explored schedule.
  for (const char* name : {"stencil_buggy", "histogram", "pipeline_nobackpressure"}) {
    const auto* scenario = find_scenario(name);
    ASSERT_NE(scenario, nullptr) << name;
    const auto report = run_conformance(*scenario, small_grid());
    EXPECT_TRUE(report.passed()) << report.render();
    EXPECT_GT(report.runs_with_reports, 0u) << name;
    EXPECT_GT(report.runs_with_truth, 0u) << name;
  }
}

TEST(Conformance, ScheduleDependentBugsNeedExploration) {
  // pipeline_window2 and stencil_sparse race on every schedule (the ground
  // truth finds a pair on every completed run), but the detector compares
  // only the latest access, so which race it reports, and on stencil_sparse
  // whether it reports one, depends on the schedule. The grid must stay
  // fully conformant while catching them somewhere.
  for (const char* name : {"pipeline_window2", "stencil_sparse"}) {
    const auto* scenario = find_scenario(name);
    ASSERT_NE(scenario, nullptr) << name;
    auto options = small_grid();
    options.seeds = 8;
    const auto report = run_conformance(*scenario, options);
    EXPECT_TRUE(report.passed()) << report.render();
    EXPECT_GT(report.runs_with_reports, 0u) << name;
    for (const auto& run : report.runs) {
      if (run.completed) {
        EXPECT_GT(run.truth_pairs, 0u) << name << " seed " << run.seed;
      }
    }
  }
}

TEST(Conformance, CheckRunCrossChecksASingleWorld) {
  WorldConfig config;
  config.nprocs = 4;
  config.seed = 5;
  World world(config);
  world.record();
  workload::HistogramConfig wl;
  wl.bins = 3;
  wl.increments_per_rank = 10;
  workload::spawn_histogram(world, wl);
  const auto report = world.run();
  ASSERT_TRUE(report.completed);
  const auto verdicts = check_run(world, report);
  EXPECT_TRUE(verdicts.failed_checks.empty())
      << verdicts.failed_checks.front();
  EXPECT_EQ(verdicts.live_reports, world.races().count());
  EXPECT_EQ(verdicts.seed, 5u);
  EXPECT_GT(verdicts.truth_pairs, 0u);
}

/// Runs a deliberately mislabeled scenario — racy histogram declared
/// race-free — on `transport`. The harness must flag every racy schedule
/// and export its witness log, which folds offline back to the racy
/// verdicts.
void expect_witnessed_disagreements(core::Transport transport) {
  Scenario mislabeled;
  mislabeled.name = "mislabeled_histogram";
  mislabeled.expect = RaceExpectation::kNever;
  mislabeled.min_ranks = 1;
  mislabeled.spawn = contended_histogram();

  const auto witness_dir = std::filesystem::temp_directory_path() /
                           ("dsmr_conformance_test_" + std::string(core::to_string(transport)));
  std::filesystem::remove_all(witness_dir);

  auto options = small_grid();
  options.base.transport = transport;
  options.seeds = 4;
  options.witness_dir = witness_dir.string();
  const auto report = run_conformance(mislabeled, options);
  ASSERT_FALSE(report.passed());
  EXPECT_GT(report.runs_with_reports, 0u);
  for (const auto& divergence : report.disagreements) {
    EXPECT_EQ(divergence.check.substr(0, 22), "race-in-clean-scenario");
    ASSERT_FALSE(divergence.witness.empty());
    EXPECT_NE(divergence.describe().find(divergence.witness), std::string::npos);
    std::string error;
    const auto bytes = record::read_file(divergence.witness, &error);
    ASSERT_TRUE(bytes.has_value()) << error;
    const auto log = record::Log::parse(*bytes, &error);
    ASSERT_TRUE(log.has_value()) << error;
    // What dsmr_replay does: fold at the recorded mode, match the footer.
    const auto folded = record::replay_fold(*log, log->header.mode);
    ASSERT_TRUE(folded.ok()) << folded.error;
    EXPECT_EQ(record::check_record_replay(*log), "");
    EXPECT_FALSE(log->live.races.empty()) << log->live.to_string();
  }
  std::ostringstream json;
  report.write_json(json);
  EXPECT_NE(json.str().find("\"witness\":\"" + report.disagreements.front().witness),
            std::string::npos);
  std::filesystem::remove_all(witness_dir);
}

TEST(Conformance, RacyRunInCleanScenarioIsADisagreementWithExportedTrace) {
  expect_witnessed_disagreements(core::Transport::kHomeSide);
}

// The initiator-side layouts check at the initiator, yet their recordings
// fold to the same verdicts: their disagreements ship witnesses too.
TEST(Conformance, DisagreementsOnTheSeparateAndPiggybackLayoutsShipWitnesses) {
  expect_witnessed_disagreements(core::Transport::kSeparate);
  expect_witnessed_disagreements(core::Transport::kPiggyback);
}

TEST(Conformance, DisagreementsCarryTheReproCoordinate) {
  Scenario mislabeled;
  mislabeled.name = "mislabeled";
  mislabeled.expect = RaceExpectation::kNever;
  mislabeled.min_ranks = 1;
  mislabeled.spawn = contended_histogram();
  auto options = small_grid();
  options.seeds = 3;
  const auto report = run_conformance(mislabeled, options);
  ASSERT_FALSE(report.passed());
  const auto& divergence = report.disagreements.front();
  // Replaying the coordinate reproduces a racy schedule deterministically.
  const auto replay = run_at(options.base, divergence.seed, divergence.perturb,
                             mislabeled.spawn);
  EXPECT_GT(replay.race_count, 0u);
}

TEST(Conformance, ReportRendersAndWritesJson) {
  const auto* scenario = find_scenario("master_worker");
  ASSERT_NE(scenario, nullptr);
  auto options = small_grid();
  options.seeds = 3;
  const auto report = run_conformance(*scenario, options);
  EXPECT_TRUE(report.passed()) << report.render();
  EXPECT_NE(report.render().find("master_worker"), std::string::npos);

  std::ostringstream json;
  report.write_json(json);
  const auto text = json.str();
  EXPECT_NE(text.find("\"scenario\":\"master_worker\""), std::string::npos);
  EXPECT_NE(text.find("\"passed\":true"), std::string::npos);
  EXPECT_NE(text.find("\"runs\":["), std::string::npos);
  // Structural sanity: braces and brackets balance.
  int depth = 0;
  bool in_string = false, escaped = false;
  for (const char c : text) {
    if (escaped) { escaped = false; continue; }
    if (c == '\\') { escaped = true; continue; }
    if (c == '"') { in_string = !in_string; continue; }
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

// ---------------------------------------------------------------------------
// Fault grid: transparency and clean failure
// ---------------------------------------------------------------------------

std::vector<net::FaultPlan> recoverable_plans() {
  std::vector<net::FaultPlan> plans;
  for (const char* name : {"loss1", "dupdelay", "crash-restart"}) {
    const auto plan = net::parse_fault_plan(name);
    EXPECT_TRUE(plan.has_value()) << name;
    plans.push_back(*plan);
  }
  return plans;
}

TEST(Conformance, RecoverableFaultsAreTransparentOnCleanScenarios) {
  // The tentpole invariant at harness level: every recoverable plan's run
  // must be verdict-identical to the fault-free run of the same (seed,
  // perturbation) — the transport masks the faults, the detectors never
  // notice.
  const auto* scenario = find_scenario("stencil");
  ASSERT_NE(scenario, nullptr);
  auto options = small_grid();
  options.seeds = 4;
  options.fault_plans = recoverable_plans();
  const auto report = run_conformance(*scenario, options);
  EXPECT_TRUE(report.passed()) << report.render();
  EXPECT_EQ(report.base_schedules, 8u);             // 4 seeds × 2 variants.
  EXPECT_EQ(report.runs.size(), 32u);               // × (1 base + 3 plans).
  EXPECT_EQ(report.fault_runs, 24u);
  EXPECT_EQ(report.fault_transparent_runs, 24u);    // all masked.
  EXPECT_EQ(report.watchdog_runs, 0u);
}

TEST(Conformance, RacyScenariosStayConformantUnderRecoverableFaults) {
  // Racy scenarios' verdicts are schedule-dependent, so signature equality
  // is not demanded of them (a retransmission legitimately shifts the
  // interleaving) — but every fault run must still complete, pass the
  // structural cross-checks, and manifestation must be counted on the
  // fault-free axis only.
  const auto* scenario = find_scenario("histogram");
  ASSERT_NE(scenario, nullptr);
  auto options = small_grid();
  options.seeds = 3;
  options.fault_plans = recoverable_plans();
  const auto report = run_conformance(*scenario, options);
  EXPECT_TRUE(report.passed()) << report.render();
  EXPECT_GT(report.runs_with_reports, 0u);
  EXPECT_LE(report.runs_with_reports, report.base_schedules);
  EXPECT_EQ(report.fault_runs, report.base_schedules * 3);
  EXPECT_EQ(report.watchdog_runs, 0u);
  EXPECT_LE(report.manifestation_rate(), 1.0);
}

TEST(Conformance, UnrecoverablePlanEndsInTheWatchdogCleanly) {
  // Clean-failure invariant: a permanent NIC crash may strand the workload,
  // but every stranded run must terminate with the watchdog diagnostic —
  // counted, diagnosed, and NOT a conformance failure.
  const auto* scenario = find_scenario("histogram_locked");
  ASSERT_NE(scenario, nullptr);
  auto options = small_grid();
  options.seeds = 2;
  options.fault_plans = {*net::parse_fault_plan("blackhole")};
  const auto report = run_conformance(*scenario, options);
  EXPECT_TRUE(report.passed()) << report.render();
  EXPECT_GT(report.watchdog_runs, 0u);
  bool saw_diagnosed_fault_run = false;
  for (std::size_t i = 0; i < report.runs.size(); ++i) {
    const auto& run = report.runs[i];
    if (run.fault == net::FaultPlan{} || run.completed) continue;
    saw_diagnosed_fault_run = true;
    EXPECT_NE(run.diagnostic.find("watchdog:"), std::string::npos);
    EXPECT_TRUE(run.signature.empty());  // incomplete runs sign nothing.
  }
  EXPECT_TRUE(saw_diagnosed_fault_run);
}

TEST(Conformance, FaultRunsCarryTheirPlanInTheReport) {
  const auto* scenario = find_scenario("stencil");
  ASSERT_NE(scenario, nullptr);
  auto options = small_grid();
  options.seeds = 2;
  options.fault_plans = {*net::parse_fault_plan("loss1")};
  const auto report = run_conformance(*scenario, options);
  // Plan-minor order: each base run directly precedes its fault variants.
  ASSERT_EQ(report.runs.size(), 8u);
  for (std::size_t i = 0; i < report.runs.size(); ++i) {
    const bool is_base = i % 2 == 0;
    EXPECT_EQ(report.runs[i].fault == net::FaultPlan{}, is_base) << i;
    if (!is_base) {
      EXPECT_EQ(report.runs[i].seed, report.runs[i - 1].seed);
      EXPECT_EQ(report.runs[i].perturb, report.runs[i - 1].perturb);
    }
  }
  std::ostringstream json;
  report.write_json(json);
  EXPECT_NE(json.str().find("\"fault\":\"drop=10000\""), std::string::npos);
}

TEST(ConformanceDeath, HarnessOnlyPlansAreRejectedFromTheWireGrid) {
  // drop-live-reports is a fuzz-harness hook, not a wire fault: feeding it
  // to the conformance grid is a configuration bug, caught loudly.
  const auto* scenario = find_scenario("stencil");
  ASSERT_NE(scenario, nullptr);
  auto options = small_grid();
  options.seeds = 1;
  options.fault_plans = {*net::parse_fault_plan("drop-live-reports")};
  EXPECT_DEATH(run_conformance(*scenario, options), "injects nothing");
}

TEST(Conformance, MasterWorkerBenignRaceIsSignaledOnEverySchedule) {
  // §IV.D: the intentional race must be signaled (manifestation rate 1.0
  // at this contention level) and never break a structural invariant.
  const auto* scenario = find_scenario("master_worker");
  ASSERT_NE(scenario, nullptr);
  const auto report = run_conformance(*scenario, small_grid());
  EXPECT_TRUE(report.passed()) << report.render();
  EXPECT_DOUBLE_EQ(report.manifestation_rate(), 1.0);
}

}  // namespace
}  // namespace dsmr::analysis
