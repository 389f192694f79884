// Tests for the program-space fuzzer: generator determinism and
// construction guarantees across the four-kind bug taxonomy, canonical
// serialization (signal/wait ops, collective boundaries, wrong locks), the
// differential harness hookup with kSometimes manifestation rates, the
// delta-debugging shrinker on the new op kinds, the repro/replay loop, and
// the coverage-guided seed scheduler.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "analysis/conformance.hpp"
#include "fuzz/generate.hpp"
#include "fuzz/harness.hpp"
#include "fuzz/program.hpp"
#include "fuzz/shrink.hpp"
#include "record/log.hpp"
#include "record/replay.hpp"
#include "runtime/world.hpp"
#include "util/rng.hpp"

namespace dsmr::fuzz {
namespace {

GenConfig small_config(std::uint64_t seed, bool plant,
                       BugKind kind = BugKind::kDroppedEdge) {
  GenConfig config;
  config.seed = seed;
  config.plant_bug = plant;
  config.bug_kind = kind;
  config.nprocs = 4;
  config.areas = 5;  // >= nprocs + 1: every bug kind is eligible.
  config.phases = 2;
  config.max_ops_per_rank = 4;
  return config;
}

FuzzCheckOptions quick_check(int threads = 1) {
  FuzzCheckOptions options;
  options.schedule_seeds = 2;
  options.threads = threads;
  options.perturbations = {sim::PerturbConfig{}, sim::PerturbConfig{0, 4'000, 1}};
  return options;
}

/// A scratch directory fresh per use; gtest runs suites in one process, so
/// a per-test suffix keeps them independent.
std::string scratch_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / ("dsmr-fuzz-test-" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

// ---------------------------------------------------------------------------
// Generator determinism
// ---------------------------------------------------------------------------

TEST(FuzzGenerate, SameSeedIsByteIdentical) {
  for (const BugKind kind : all_bug_kinds()) {
    for (const bool plant : {false, true}) {
      const auto a = generate_program(small_config(42, plant, kind));
      const auto b = generate_program(small_config(42, plant, kind));
      EXPECT_EQ(a, b);
      EXPECT_EQ(serialize(a), serialize(b));
    }
  }
}

TEST(FuzzGenerate, IndependentOfSurroundingRngState) {
  // Generation must not read any ambient state: interleaving unrelated RNG
  // draws (as a restarted process or a different call order would) cannot
  // change the program.
  const auto baseline = serialize(generate_program(small_config(7, true)));
  util::Rng noise(123);
  for (int i = 0; i < 1000; ++i) noise.next();
  EXPECT_EQ(serialize(generate_program(small_config(7, true))), baseline);
}

TEST(FuzzGenerate, DifferentSeedsDiverge) {
  std::set<std::string> texts;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    texts.insert(serialize(generate_program(small_config(seed, false))));
  }
  EXPECT_GE(texts.size(), 7u);  // near-certain all-distinct.
}

TEST(FuzzGenerate, ProfilesAreKnownAndChangeTheMix) {
  for (const auto& name : profile_names()) {
    GenConfig config = small_config(3, false);
    EXPECT_TRUE(apply_profile(name, config)) << name;
  }
  GenConfig config = small_config(3, false);
  EXPECT_FALSE(apply_profile("no-such-profile", config));
  GenConfig write_heavy = small_config(3, false);
  ASSERT_TRUE(apply_profile("write-heavy", write_heavy));
  EXPECT_NE(serialize(generate_program(write_heavy)),
            serialize(generate_program(small_config(3, false))));
}

TEST(FuzzGenerate, SyncRichProgramsUseTheNewOps) {
  // The signal/wait + collective slice really exercises the new surface.
  GenConfig config = small_config(5, false);
  ASSERT_TRUE(apply_profile("sync-rich", config));
  std::uint64_t signals = 0, waits = 0, collectives = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    config.seed = seed;
    const auto program = generate_program(config);
    for (const auto& phase : program.phases) {
      if (phase.entry.kind != BoundaryKind::kBarrier) ++collectives;
      for (const auto& ops : phase.ops) {
        for (const auto& op : ops) {
          if (op.kind == OpKind::kSignal) ++signals;
          if (op.kind == OpKind::kWait) ++waits;
        }
      }
    }
  }
  EXPECT_GT(signals, 0u);
  EXPECT_EQ(signals, waits);  // every edge has both ends.
  EXPECT_GT(collectives, 0u);
}

TEST(FuzzGenerate, PlantedProgramsDeclareTheBug) {
  for (const BugKind kind : all_bug_kinds()) {
    const auto program = generate_program(small_config(11, true, kind));
    ASSERT_TRUE(program.planted.has_value()) << to_string(kind);
    const auto& bug = *program.planted;
    EXPECT_EQ(bug.kind, kind);
    // Always-racy kinds promise every schedule; timing kinds only some.
    EXPECT_EQ(program.expect,
              kind == BugKind::kDroppedEdge || kind == BugKind::kWrongLock
                  ? Expectation::kRacy
                  : Expectation::kSometimes);
    // The construction rules (generate.hpp): home uninvolved, distinct pair.
    EXPECT_NE(bug.owner, bug.victim);
    const int home = bug.area % program.nprocs;
    EXPECT_NE(home, bug.owner);
    EXPECT_NE(home, bug.victim);
    if (kind == BugKind::kDroppedEdge) {
      EXPECT_EQ(bug.phase, 0);
      EXPECT_EQ(bug.aux_area, -1);
    } else {
      // The sibling area shares the home (area pair (a, a + nprocs)).
      ASSERT_GE(bug.aux_area, 0);
      EXPECT_EQ(bug.aux_area % program.nprocs, home);
    }
    if (kind == BugKind::kPartialBarrier) {
      const auto& skipped = program.phases[static_cast<std::size_t>(bug.phase) + 1];
      EXPECT_EQ(skipped.skip_rank, bug.victim);
      EXPECT_EQ(skipped.entry.kind, BoundaryKind::kBarrier);
    }
  }
}

TEST(FuzzGenerateDeath, PlantedBugNeedsThreeRanks) {
  GenConfig config = small_config(1, true);
  config.nprocs = 2;
  EXPECT_DEATH(generate_program(config), ">= 3 ranks");
}

TEST(FuzzGenerate, EligibilityTracksTheShape) {
  GenConfig config = small_config(1, false);
  EXPECT_EQ(eligible_bug_kinds(config).size(), 4u);
  config.phases = 1;  // no boundary to skip.
  EXPECT_FALSE(bug_kind_eligible(config, BugKind::kPartialBarrier));
  config.areas = config.nprocs;  // no same-home pair.
  EXPECT_FALSE(bug_kind_eligible(config, BugKind::kWrongLock));
  EXPECT_FALSE(bug_kind_eligible(config, BugKind::kAckWindow));
  EXPECT_TRUE(bug_kind_eligible(config, BugKind::kDroppedEdge));
  config.nprocs = 2;
  EXPECT_TRUE(eligible_bug_kinds(config).empty());
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

TEST(FuzzProgram, SerializeParseRoundTrip) {
  GenConfig rich = small_config(1, false);
  ASSERT_TRUE(apply_profile("sync-rich", rich));
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    rich.seed = seed;
    for (const bool plant : {false, true}) {
      for (const BugKind kind : all_bug_kinds()) {
        rich.plant_bug = plant;
        rich.bug_kind = kind;
        const auto program = generate_program(rich);
        const auto text = serialize(program);
        std::string error;
        const auto parsed = parse_program(text, &error);
        ASSERT_TRUE(parsed.has_value()) << error;
        EXPECT_EQ(*parsed, program);
        // Canonical: re-serialization is byte-identical.
        EXPECT_EQ(serialize(*parsed), text);
        if (!plant) break;  // kinds only matter when planting.
      }
    }
  }
}

TEST(FuzzProgram, ParserRejectsMalformedInput) {
  const auto good = serialize(generate_program(small_config(1, true)));
  const std::vector<std::string> bad = {
      "",
      "dsmr-program v1\n",                        // the pre-taxonomy format.
      "dsmr-program v3\n",
      good.substr(0, good.size() / 2),            // truncated.
      good + "trailing\n",                        // content after end.
      "dsmr-program v2\nnprocs 0\n",              // out-of-range scalar.
      "dsmr-program v2\nnprocs 2\nareas 1\narea_bytes 8\nexpect maybe\n",
  };
  for (const auto& text : bad) {
    std::string error;
    EXPECT_FALSE(parse_program(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty());
  }
  // An op referencing a nonexistent area must be rejected, not clamped.
  std::string out_of_range = good;
  const auto pos = out_of_range.find("put ");
  ASSERT_NE(pos, std::string::npos);
  out_of_range.replace(pos, 5, "put 9");
  EXPECT_FALSE(parse_program(out_of_range).has_value());
}

TEST(FuzzProgram, ParserRejectsMalformedNewSyntax) {
  const std::string head =
      "dsmr-program v2\nnprocs 3\nareas 4\narea_bytes 8\nexpect clean\nphases 1\n";
  auto one_rank_program = [&head](const std::string& op_lines, int op_count) {
    return head + "phase 0\nrank 0 " + std::to_string(op_count) + "\n" + op_lines +
           "rank 1 0\nrank 2 0\nend\n";
  };
  const std::vector<std::string> bad = {
      one_rank_program("signal 3 1\n", 1),       // peer out of range.
      one_rank_program("signal 1\n", 1),         // missing tag.
      one_rank_program("wait 1 2\n", 1),         // wait has no peer.
      one_rank_program("put 0 l 0\n", 1),        // lock == area is not canonical.
      one_rank_program("put 0 u 1\n", 1),        // unlocked op with a lock area.
      one_rank_program("wait 99999999999999999999\n", 1),  // tag overflow.
      head + "phase 0 allreduce\nrank 0 0\nrank 1 0\nrank 2 0\nend\n",  // phase 0 entry.
      head + "phase 0\nrank 0 0\nrank 1 0\nrank 2 0\nphase 1 gatherbcast 3\n",
  };
  for (const auto& text : bad) {
    std::string error;
    EXPECT_FALSE(parse_program(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty());
  }
  // The well-formed variants of the same constructs parse.
  const auto good =
      one_rank_program("signal 1 1\nwait 2\nput 0 l 1\nget 0 l\nput 0 u\n", 5);
  std::string error;
  EXPECT_TRUE(parse_program(good, &error).has_value()) << error;
  // An unknown planted kind is rejected.
  std::string planted = serialize(generate_program(small_config(2, true)));
  const auto pos = planted.find("dropped-edge");
  ASSERT_NE(pos, std::string::npos);
  planted.replace(pos, 12, "no-such-kind");
  EXPECT_FALSE(parse_program(planted).has_value());
}

TEST(FuzzProgram, ParseBugKindsGrammar) {
  // The --bug-kinds grammar shared by dsmr_fuzz and dsmr_explore.
  using Kinds = std::vector<BugKind>;
  struct Case {
    std::string text;
    std::optional<Kinds> expected;
  };
  const std::vector<Case> cases = {
      {"all", all_bug_kinds()},
      {"none", Kinds{}},
      {"wrong-lock,ack-window,wrong-lock", Kinds{BugKind::kWrongLock, BugKind::kAckWindow}},
      {"dropped-edge,bogus", std::nullopt},
      {"", std::nullopt},
  };
  for (const auto& c : cases) {
    std::string error;
    EXPECT_EQ(parse_bug_kinds(c.text, &error), c.expected) << "'" << c.text << "'";
    if (!c.expected) {
      // The diagnostic lists every known kind.
      for (const BugKind kind : all_bug_kinds()) {
        EXPECT_NE(error.find(to_string(kind)), std::string::npos) << error;
      }
    }
  }
}

TEST(FuzzProgram, OpCountCountsEveryRankAndPhase) {
  Program program;
  program.nprocs = 2;
  program.areas = 1;
  program.phases.resize(2);
  Op put;
  put.kind = OpKind::kPut;
  Op sleep;
  sleep.kind = OpKind::kSleep;
  sleep.duration = 100;
  Op wait;
  wait.kind = OpKind::kWait;
  wait.tag = 3;
  program.phases[0].ops = {{put}, {}};
  program.phases[1].ops = {{sleep}, {wait}};
  EXPECT_EQ(program.op_count(), 3u);
}

TEST(FuzzProgram, BoundaryKindsSpawnAndComplete) {
  // Hand-built program exercising every boundary kind end-to-end: it must
  // run to completion (no deadlock) and stay silent (each boundary is a
  // full frontier ordering the cross-phase exclusive handoff).
  Program program;
  program.nprocs = 3;
  program.areas = 3;
  program.phases.resize(4);
  const std::vector<Boundary> entries = {Boundary{},
                                         Boundary{BoundaryKind::kAllreduce, 0},
                                         Boundary{BoundaryKind::kGatherBcast, 1},
                                         Boundary{BoundaryKind::kGatherScatter, 2}};
  for (std::size_t p = 0; p < 4; ++p) {
    program.phases[p].entry = entries[p];
    Op put;
    put.kind = OpKind::kPut;
    // A different rank writes the same area each phase: only legal because
    // the boundary is a frontier.
    put.area = 0;
    program.phases[p].ops.resize(3);
    program.phases[p].ops[p % 3].push_back(put);
  }
  const auto verdict = check_program(program, quick_check());
  EXPECT_TRUE(verdict.passed()) << verdict.failures.front().describe();
  EXPECT_EQ(verdict.report.incomplete_runs, 0u);
  EXPECT_EQ(verdict.report.runs_with_truth, 0u);
}

// ---------------------------------------------------------------------------
// Harness: construction guarantees across the differential grid
// ---------------------------------------------------------------------------

TEST(FuzzHarness, CleanProgramsConformAndStaySilent) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto program = generate_program(small_config(seed, false));
    const auto verdict = check_program(program, quick_check());
    EXPECT_TRUE(verdict.passed()) << "seed " << seed << ": "
                                  << verdict.failures.front().describe();
    EXPECT_EQ(verdict.report.runs_with_reports, 0u) << "seed " << seed;
    EXPECT_EQ(verdict.report.runs_with_truth, 0u) << "seed " << seed;
    EXPECT_EQ(verdict.manifested_runs, 0u) << "seed " << seed;
  }
  // Clean programs from the sync-rich slice (signal/wait + collectives).
  GenConfig rich = small_config(0, false);
  ASSERT_TRUE(apply_profile("sync-rich", rich));
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    rich.seed = seed;
    const auto verdict = check_program(generate_program(rich), quick_check());
    EXPECT_TRUE(verdict.passed()) << "sync-rich seed " << seed << ": "
                                  << verdict.failures.front().describe();
    EXPECT_EQ(verdict.report.runs_with_reports, 0u) << "sync-rich seed " << seed;
  }
}

TEST(FuzzHarness, AlwaysRacyKindsManifestOnEverySchedule) {
  // The fuzz acceptance property at test scale: every always-racy planted
  // program is racy in ground truth AND flagged by both detector modes AND
  // live, on every explored (seed, perturbation) — with zero cross-detector
  // disagreements.
  for (const BugKind kind : {BugKind::kDroppedEdge, BugKind::kWrongLock}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const auto program = generate_program(small_config(seed, true, kind));
      const auto verdict = check_program(program, quick_check());
      EXPECT_TRUE(verdict.passed()) << to_string(kind) << " seed " << seed << ": "
                                    << verdict.failures.front().describe();
      EXPECT_EQ(verdict.manifested_runs, verdict.completed_runs);
      EXPECT_EQ(verdict.manifestation_rate(), 1.0);
      for (const auto& run : verdict.report.runs) {
        EXPECT_TRUE(run.completed);
        EXPECT_GT(run.truth_pairs, 0u) << to_string(kind) << " seed " << seed;
        EXPECT_GT(run.live_reports, 0u) << to_string(kind) << " seed " << seed;
        EXPECT_GT(run.dual_flagged, 0u) << to_string(kind) << " seed " << seed;
        EXPECT_GT(run.single_flagged, 0u) << to_string(kind) << " seed " << seed;
      }
    }
  }
}

TEST(FuzzHarness, SometimesKindsManifestAtLeastOnceWithoutNoise) {
  // Schedule-dependent kinds: >= 1 manifesting schedule (the base variant
  // by construction), a recorded rate, and zero reports on silent
  // schedules (checked by the sometimes-noise invariant inside
  // check_program — a failure here would surface it).
  for (const BugKind kind : {BugKind::kPartialBarrier, BugKind::kAckWindow}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const auto program = generate_program(small_config(seed, true, kind));
      EXPECT_EQ(program.expect, Expectation::kSometimes);
      const auto verdict = check_program(program, quick_check());
      EXPECT_TRUE(verdict.passed()) << to_string(kind) << " seed " << seed << ": "
                                    << verdict.failures.front().describe();
      EXPECT_GE(verdict.manifested_runs, 1u) << to_string(kind) << " seed " << seed;
      EXPECT_GT(verdict.manifestation_rate(), 0.0);
      EXPECT_LE(verdict.manifestation_rate(), 1.0);
      // The base (unperturbed) variant manifests by construction.
      for (const auto& run : verdict.report.runs) {
        if (!run.perturb.enabled()) {
          EXPECT_GT(run.truth_pairs, 0u)
              << to_string(kind) << " seed " << seed << " base schedule silent";
        }
      }
    }
  }
}

TEST(FuzzHarness, SometimesRatesAreScheduleDependentInAggregate) {
  // Across a pile of ack-window programs and a perturbed grid, some
  // schedule must order the pair (rate < 1 for at least one program) —
  // the taxonomy's "schedule-dependent" claim, measured.
  FuzzCheckOptions wide = quick_check();
  wide.perturbations = {sim::PerturbConfig{}, sim::PerturbConfig{0, 8'000, 1},
                        sim::PerturbConfig{0, 8'000, 2}};
  std::uint64_t manifested = 0, completed = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto program =
        generate_program(small_config(seed, true, BugKind::kAckWindow));
    const auto verdict = check_program(program, wide);
    manifested += verdict.manifested_runs;
    completed += verdict.completed_runs;
  }
  ASSERT_GT(completed, 0u);
  EXPECT_LT(manifested, completed);  // at least one ordered schedule.
  EXPECT_GT(manifested, completed / 2);  // but manifestation dominates.
}

TEST(FuzzHarness, VerdictsIdenticalAcrossSerialAndThreadedSweeps) {
  const auto program = generate_program(small_config(23, true));
  const auto serial = check_program(program, quick_check(1));
  const auto threaded = check_program(program, quick_check(4));
  ASSERT_EQ(serial.report.runs.size(), threaded.report.runs.size());
  for (std::size_t i = 0; i < serial.report.runs.size(); ++i) {
    const auto& a = serial.report.runs[i];
    const auto& b = threaded.report.runs[i];
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.perturb, b.perturb);
    EXPECT_EQ(a.live_reports, b.live_reports);
    EXPECT_EQ(a.truth_pairs, b.truth_pairs);
    EXPECT_EQ(a.fast_flagged, b.fast_flagged);
    EXPECT_EQ(a.oracle_flagged, b.oracle_flagged);
    EXPECT_EQ(a.dual_flagged, b.dual_flagged);
    EXPECT_EQ(a.single_flagged, b.single_flagged);
    EXPECT_EQ(a.failed_checks, b.failed_checks);
  }
  EXPECT_EQ(serial.failures.size(), threaded.failures.size());
  EXPECT_EQ(serial.manifested_runs, threaded.manifested_runs);
}

TEST(FuzzHarness, VerdictsSurviveSerializationRoundTrip) {
  // A restarted process sees only the serialized program; its verdicts must
  // match the original generation's bit-for-bit.
  for (const BugKind kind : {BugKind::kWrongLock, BugKind::kAckWindow}) {
    const auto program = generate_program(small_config(31, true, kind));
    const auto reparsed = parse_program(serialize(program));
    ASSERT_TRUE(reparsed.has_value());
    const auto a = check_program(program, quick_check());
    const auto b = check_program(*reparsed, quick_check());
    ASSERT_EQ(a.report.runs.size(), b.report.runs.size());
    for (std::size_t i = 0; i < a.report.runs.size(); ++i) {
      EXPECT_EQ(a.report.runs[i].live_reports, b.report.runs[i].live_reports);
      EXPECT_EQ(a.report.runs[i].truth_pairs, b.report.runs[i].truth_pairs);
    }
    EXPECT_EQ(a.manifested_runs, b.manifested_runs);
  }
}

TEST(FuzzHarness, GeneratedProgramsAreFirstClassScenarios) {
  // to_scenario output runs through analysis::run_conformance exactly like
  // a built-in scenario.
  const auto program =
      std::make_shared<const Program>(generate_program(small_config(5, false)));
  const auto scenario = to_scenario(program, "fuzz-first-class");
  EXPECT_EQ(scenario.name, "fuzz-first-class");
  EXPECT_EQ(scenario.expect, analysis::RaceExpectation::kNever);
  EXPECT_EQ(scenario.min_ranks, program->nprocs);

  analysis::ConformanceOptions options;
  options.base.nprocs = program->nprocs;
  options.seeds = 3;
  const auto report = analysis::run_conformance(scenario, options);
  EXPECT_TRUE(report.passed()) << report.render();
  EXPECT_EQ(report.runs_with_reports, 0u);

  // kSometimes programs map to the sometimes conformance expectation.
  const auto sometimes = std::make_shared<const Program>(
      generate_program(small_config(5, true, BugKind::kAckWindow)));
  EXPECT_EQ(to_scenario(sometimes, "s").expect, analysis::RaceExpectation::kSometimes);
}

/// The test-only detector-silence hook as a fault plan (net/fault.hpp).
net::FaultPlan drop_live_hook() {
  net::FaultPlan plan;
  plan.drop_live_reports = true;
  return plan;
}

TEST(FuzzHarness, FaultHookForcesDisagreement) {
  const auto program = generate_program(small_config(3, true));
  FuzzCheckOptions options = quick_check();
  options.fault_plans = {drop_live_hook()};
  const auto verdict = check_program(program, options);
  ASSERT_FALSE(verdict.passed());
  for (const auto& failure : verdict.failures) {
    EXPECT_EQ(check_name(failure.check), "planted-bug-not-detected");
  }
  // The hook only breaks the harness's view of *live* reports: clean
  // programs stay unaffected.
  const auto clean = generate_program(small_config(3, false));
  EXPECT_TRUE(check_program(clean, options).passed());
}

TEST(FuzzHarness, CheckNameStripsDetail) {
  EXPECT_EQ(check_name("precision: 3/4 reports true"), "precision");
  EXPECT_EQ(check_name("planted-bug-not-detected"), "planted-bug-not-detected");
}

// ---------------------------------------------------------------------------
// Shrinker
// ---------------------------------------------------------------------------

/// The deterministic single-schedule predicate the CLI uses: the named
/// check still fires at the failing coordinate under the recorded fault.
StillFails check_fires(const std::string& check, const net::FaultPlan& fault,
                       std::uint64_t seed, const sim::PerturbConfig& perturb) {
  return [check, fault, seed, perturb](const Program& candidate) {
    FuzzCheckOptions one;
    one.first_schedule_seed = seed;
    one.schedule_seeds = 1;
    one.perturbations = {perturb};
    if (!(fault == net::FaultPlan{})) one.fault_plans = {fault};
    const auto verdict = check_program(candidate, one);
    for (const auto& failure : verdict.failures) {
      if (check_name(failure.check) == check) return true;
    }
    return false;
  };
}

TEST(FuzzShrink, PlantedBugShrinksToAFewOpsStillRacing) {
  for (std::uint64_t seed : {3u, 9u, 17u}) {
    GenConfig config = small_config(seed, true);
    config.phases = 3;
    config.max_ops_per_rank = 6;
    const auto program = generate_program(config);
    ASSERT_GT(program.op_count(), 12u);  // something to shrink.

    // Forced disagreement at a fixed coordinate (the acceptance path).
    const sim::PerturbConfig perturb{};
    const auto predicate =
        check_fires("planted-bug-not-detected", drop_live_hook(), 1, perturb);
    ASSERT_TRUE(predicate(program));

    const auto result = shrink_program(program, predicate);
    EXPECT_TRUE(result.changed);
    EXPECT_LE(result.final_ops, 12u) << "seed " << seed;
    EXPECT_LT(result.final_ops, result.initial_ops);
    // The minimized program still reproduces the disagreement...
    EXPECT_TRUE(predicate(result.program));
    // ...because it still contains the race itself (without the fault the
    // detector flags it on the same schedule).
    FuzzCheckOptions one;
    one.first_schedule_seed = 1;
    one.schedule_seeds = 1;
    one.perturbations = {perturb};
    const auto verdict = check_program(result.program, one);
    ASSERT_EQ(verdict.report.runs.size(), 1u);
    EXPECT_GT(verdict.report.runs.front().truth_pairs, 0u);
    EXPECT_GT(verdict.report.runs.front().live_reports, 0u);
  }
}

TEST(FuzzShrink, SyncRichProgramsShrinkThroughTheNewOps) {
  // A planted bug buried under signal/wait edges and collective boundaries
  // still minimizes: boundaries collapse to barriers, sync edges drop in
  // matched pairs, and orphan-wait candidates (which deadlock) are simply
  // rejected by the predicate rather than wedging the loop.
  GenConfig config = small_config(13, true, BugKind::kWrongLock);
  ASSERT_TRUE(apply_profile("sync-rich", config));
  config.seed = 13;
  config.plant_bug = true;
  config.bug_kind = BugKind::kWrongLock;
  const auto program = generate_program(config);
  const auto predicate =
      check_fires("planted-bug-not-detected", drop_live_hook(), 1, {});
  ASSERT_TRUE(predicate(program));
  const auto result = shrink_program(program, predicate);
  EXPECT_TRUE(result.changed);
  EXPECT_LE(result.final_ops, 12u);
  // Everything ornamental is gone: no collective boundaries, no sync ops.
  for (const auto& phase : result.program.phases) {
    EXPECT_EQ(phase.entry, Boundary{});
    for (const auto& ops : phase.ops) {
      for (const auto& op : ops) {
        EXPECT_NE(op.kind, OpKind::kSignal);
        EXPECT_NE(op.kind, OpKind::kWait);
      }
    }
  }
  EXPECT_TRUE(predicate(result.program));
}

TEST(FuzzShrink, PartialBarrierSkipCollapsesWhenIrrelevant) {
  // The arrive-only marker is structural (Phase::skip_rank), so shrinking
  // a partial-barrier program under the fault hook keeps the failure alive
  // and the boundary-restore stage drops the skip exactly when the planted
  // race no longer needs it (the shrunk race is typically a bare pair that
  // races regardless of the barrier).
  const auto program = generate_program(small_config(7, true, BugKind::kPartialBarrier));
  ASSERT_TRUE(std::any_of(program.phases.begin(), program.phases.end(),
                          [](const Phase& p) { return p.skip_rank != -1; }));
  // kSometimes programs fail the *sometimes* detection invariant under the
  // fault hook (the base schedule manifests by construction).
  const auto predicate =
      check_fires("sometimes-bug-not-detected", drop_live_hook(), 1, {});
  ASSERT_TRUE(predicate(program));
  const auto result = shrink_program(program, predicate);
  EXPECT_TRUE(result.changed);
  EXPECT_LT(result.final_ops, result.initial_ops);
  EXPECT_TRUE(predicate(result.program));
  std::string error;
  EXPECT_TRUE(validate(result.program, &error)) << error;
}

TEST(FuzzShrink, CleanProgramIsANoOp) {
  const auto program = generate_program(small_config(6, false));
  int calls = 0;
  const auto never_fails = [&calls](const Program&) {
    ++calls;
    return false;
  };
  const auto result = shrink_program(program, never_fails);
  EXPECT_FALSE(result.changed);
  EXPECT_EQ(result.program, program);
  EXPECT_EQ(calls, 1);  // one probe of the input, zero candidates.
  EXPECT_EQ(result.final_ops, result.initial_ops);
}

TEST(FuzzShrink, DeterministicAndBudgeted) {
  const auto program = generate_program(small_config(9, true));
  const auto predicate =
      check_fires("planted-bug-not-detected", drop_live_hook(), 1, {});
  const auto a = shrink_program(program, predicate);
  const auto b = shrink_program(program, predicate);
  EXPECT_EQ(a.program, b.program);
  EXPECT_EQ(a.attempts, b.attempts);

  ShrinkOptions tight;
  tight.max_attempts = 5;
  const auto capped = shrink_program(program, predicate, tight);
  EXPECT_LE(capped.attempts, 5);
}

// ---------------------------------------------------------------------------
// Repro files
// ---------------------------------------------------------------------------

Repro make_repro() {
  Repro repro;
  repro.check = "planted-bug-not-detected";
  repro.fault = drop_live_hook();
  repro.program_seed = 3;
  repro.schedule_seed = 1;
  repro.perturb = sim::PerturbConfig{0, 4'000, 2};
  repro.shrunk = true;
  repro.manifested = 3;
  repro.schedules = 4;
  repro.program = generate_program(small_config(3, true));
  return repro;
}

TEST(FuzzRepro, SerializeParseRoundTripIsByteIdentical) {
  const auto repro = make_repro();
  const auto text = serialize_repro(repro);
  std::string error;
  const auto parsed = parse_repro(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->check, repro.check);
  EXPECT_EQ(parsed->fault, repro.fault);
  EXPECT_EQ(parsed->program_seed, repro.program_seed);
  EXPECT_EQ(parsed->schedule_seed, repro.schedule_seed);
  EXPECT_EQ(parsed->perturb, repro.perturb);
  EXPECT_EQ(parsed->shrunk, repro.shrunk);
  EXPECT_EQ(parsed->program, repro.program);
  EXPECT_EQ(serialize_repro(*parsed), text);
}

TEST(FuzzRepro, SometimesRepropreservesManifestationRate) {
  // The measured-rate metadata of a kSometimes failure survives the
  // serialize → parse → serialize loop bit-for-bit.
  Repro repro = make_repro();
  repro.check = "sometimes-bug-never-manifested";
  repro.program = generate_program(small_config(4, true, BugKind::kAckWindow));
  repro.manifested = 2;
  repro.schedules = 6;
  const auto text = serialize_repro(repro);
  EXPECT_NE(text.find("manifestation 2 6"), std::string::npos);
  const auto parsed = parse_repro(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->manifested, 2u);
  EXPECT_EQ(parsed->schedules, 6u);
  EXPECT_EQ(parsed->program.expect, Expectation::kSometimes);
  EXPECT_EQ(serialize_repro(*parsed), text);
}

TEST(FuzzRepro, ReplayReproducesTheRecordedCheck) {
  const auto repro = make_repro();
  const auto fired = replay_repro(repro);
  EXPECT_FALSE(fired.empty());
  EXPECT_TRUE(reproduces(repro));

  // Without the fault there is nothing to reproduce: the detector catches
  // the planted bug, so the recorded check must NOT fire.
  Repro healthy = repro;
  healthy.fault = net::FaultPlan{};
  EXPECT_FALSE(reproduces(healthy));
}

TEST(FuzzRepro, ParserRejectsMalformedRepros) {
  const auto text = serialize_repro(make_repro());
  std::vector<std::string> bad = {
      "",
      "dsmr-fuzz-repro v1\n",                      // pre-taxonomy header.
      "dsmr-fuzz-repro v3\n",
      text.substr(0, 40),                          // truncated head.
      text.substr(0, text.size() - 10),            // truncated program.
  };
  // A repro without the manifestation line is malformed.
  std::string no_rate = text;
  const auto rate_pos = no_rate.find("manifestation ");
  ASSERT_NE(rate_pos, std::string::npos);
  no_rate.erase(rate_pos, no_rate.find('\n', rate_pos) - rate_pos + 1);
  bad.push_back(no_rate);
  // A well-formed body under the retired v3 header is rejected too.
  std::string v3 = text;
  v3.replace(v3.find("repro v4"), 8, "repro v3");
  bad.push_back(v3);
  for (const auto& candidate : bad) {
    std::string error;
    EXPECT_FALSE(parse_repro(candidate, &error).has_value());
    EXPECT_FALSE(error.empty());
  }
  std::string bad_fault = text;
  const auto pos = bad_fault.find("drop-live-reports");
  ASSERT_NE(pos, std::string::npos);
  bad_fault.replace(pos, 17, "no-such-fault-xyz");
  EXPECT_FALSE(parse_repro(bad_fault).has_value());
}

TEST(FuzzRepro, FaultPlansRoundTrip) {
  // The plan text in a repro is the canonical grammar (net/fault.hpp); the
  // default plan and the harness hook must both survive text round-trips.
  for (const net::FaultPlan& plan : {net::FaultPlan{}, drop_live_hook()}) {
    const auto parsed = net::parse_fault_plan(plan.to_string());
    ASSERT_TRUE(parsed.has_value()) << plan.to_string();
    EXPECT_EQ(*parsed, plan);
  }
  EXPECT_FALSE(net::parse_fault_plan("bogus").has_value());
}

TEST(FuzzRepro, V4CompanionLogReferenceRoundTrips) {
  Repro repro = make_repro();
  repro.record_log = "fuzz-s3-planted.dsmrlog";
  const auto text = serialize_repro(repro);
  EXPECT_NE(text.find("dsmr-fuzz-repro v4\n"), std::string::npos);
  EXPECT_NE(text.find("record fuzz-s3-planted.dsmrlog\n"), std::string::npos);
  std::string error;
  const auto parsed = parse_repro(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->record_log, repro.record_log);
  EXPECT_EQ(parsed->program, repro.program);
  EXPECT_EQ(serialize_repro(*parsed), text);
}

TEST(FuzzRepro, ParserRejectsEscapingRecordReference) {
  // The companion log is resolved relative to the .repro's directory; a
  // reference with path separators could escape it.
  Repro repro = make_repro();
  repro.record_log = "log.dsmrlog";
  std::string text = serialize_repro(repro);
  const auto pos = text.find("record log.dsmrlog");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 18, "record ../log.dsmrlog");
  std::string error;
  EXPECT_FALSE(parse_repro(text, &error).has_value());
  EXPECT_NE(error.find("basename"), std::string::npos) << error;
}

TEST(FuzzRepro, CompanionLogReRecordsByteIdentically) {
  // The .repro + .dsmrlog pair contract: re-running the repro's coordinate
  // in ANY process reproduces the stored log byte-for-byte.
  Repro repro = make_repro();
  repro.record_log = "companion.dsmrlog";
  const auto bytes = record_coordinate(repro.program, repro.program_seed,
                                       repro.schedule_seed, repro.perturb,
                                       repro.fault);
  EXPECT_EQ(check_repro_log(repro, bytes), "");

  // Corruption surfaces the parser's structured diagnostic, not a byte diff.
  auto corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= std::byte{0x20};
  const auto diag = check_repro_log(repro, corrupt);
  EXPECT_EQ(diag.rfind("[", 0), 0u) << diag;
  EXPECT_FALSE(
      check_repro_log(repro, std::span<const std::byte>(bytes.data(),
                                                        bytes.size() / 2))
          .empty());

  // A log recorded at a different coordinate is not THIS repro's log.
  Repro other = repro;
  other.schedule_seed += 1;
  const auto mismatch = check_repro_log(other, bytes);
  EXPECT_NE(mismatch.find("[log-mismatch]"), std::string::npos) << mismatch;
}

// ---------------------------------------------------------------------------
// Coverage signatures, corpus, and the seed scheduler
// ---------------------------------------------------------------------------

TEST(FuzzCoverage, ScheduleModeNamesRoundTrip) {
  for (const ScheduleMode mode : {ScheduleMode::kUniform, ScheduleMode::kCoverage}) {
    EXPECT_EQ(parse_schedule_mode(to_string(mode)), mode);
    EXPECT_EQ(schedule_mode_from_name(to_string(mode)), mode);
  }
  EXPECT_FALSE(parse_schedule_mode("bogus").has_value());
}

TEST(FuzzCoverageDeath, UnknownScheduleModePanics) {
  EXPECT_DEATH(schedule_mode_from_name("no-such-schedule"), "unknown schedule mode");
}

TEST(FuzzCoverageDeath, CorpusDirMustBeUsable) {
  // A corpus path that collides with an existing regular file is a hard
  // error, not a silently-empty corpus.
  const auto dir = scratch_dir("corpus-file");
  std::ofstream file(dir);  // create a FILE at the directory path.
  file << "not a directory\n";
  file.close();
  EXPECT_DEATH(Corpus{dir}, "corpus");
  std::filesystem::remove(dir);
}

TEST(FuzzCoverage, SignatureIsStableAndDiscriminates) {
  const auto clean = generate_program(small_config(1, false));
  const auto planted = generate_program(small_config(1, true, BugKind::kAckWindow));
  const auto verdict_clean = check_program(clean, quick_check());
  const auto verdict_planted = check_program(planted, quick_check());
  EXPECT_EQ(coverage_signature(clean, verdict_clean),
            coverage_signature(clean, verdict_clean));
  EXPECT_NE(coverage_signature(clean, verdict_clean),
            coverage_signature(planted, verdict_planted));
  EXPECT_NE(coverage_signature(planted, verdict_planted)
                .find("kind=ack-window"),
            std::string::npos);
}

TEST(FuzzCoverage, CorpusPersistsAcrossInstances) {
  const auto dir = scratch_dir("corpus-persist");
  {
    Corpus corpus(dir);
    EXPECT_TRUE(corpus.add("sig-a", "mixed/clean", 1));
    EXPECT_FALSE(corpus.add("sig-a", "mixed/clean", 2));  // duplicate.
    EXPECT_TRUE(corpus.add("sig-b", "mixed/ack-window", 3));
    corpus.flush();
  }
  Corpus reloaded(dir);
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_TRUE(reloaded.known("sig-a"));
  EXPECT_TRUE(reloaded.known("sig-b"));
  EXPECT_FALSE(reloaded.known("sig-c"));
  std::filesystem::remove_all(dir);
}

TEST(FuzzSweep, SeedHashingIsDeterministic) {
  EXPECT_EQ(plant_for_seed(7, 0.5), plant_for_seed(7, 0.5));
  EXPECT_TRUE(plant_for_seed(7, 1.0));
  EXPECT_FALSE(plant_for_seed(7, 0.0));
  const auto kinds = all_bug_kinds();
  EXPECT_EQ(kind_for_seed(11, kinds), kind_for_seed(11, kinds));
}

FuzzSweepConfig sweep_config(ScheduleMode mode, std::uint64_t programs) {
  FuzzSweepConfig config;
  config.base = small_config(0, false);
  config.mode = mode;
  config.seeds = util::SeedRange{1, programs};
  config.bug_kinds = eligible_bug_kinds(config.base);
  config.check.schedule_seeds = 1;
  config.check.perturbations = {sim::PerturbConfig{}};
  return config;
}

TEST(FuzzSweep, UniformSweepIsThreadCountInvariant) {
  auto config = sweep_config(ScheduleMode::kUniform, 12);
  config.threads = 1;
  const auto serial = run_fuzz_sweep(config);
  config.threads = 4;
  const auto threaded = run_fuzz_sweep(config);
  ASSERT_EQ(serial.outcomes.size(), threaded.outcomes.size());
  for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
    EXPECT_EQ(serial.outcomes[i].program_seed, threaded.outcomes[i].program_seed);
    EXPECT_EQ(serial.outcomes[i].arm, threaded.outcomes[i].arm);
    EXPECT_EQ(serial.outcomes[i].signature, threaded.outcomes[i].signature);
    EXPECT_EQ(serial.outcomes[i].manifested, threaded.outcomes[i].manifested);
  }
  EXPECT_EQ(serial.distinct_signatures, threaded.distinct_signatures);
  EXPECT_EQ(serial.programs, 12u);
  EXPECT_EQ(serial.kinds.count("clean"), 1u);
}

TEST(FuzzSweep, CoverageSchedulingBeatsUniformAtEqualBudget) {
  // The acceptance property at test scale: at the same program budget, the
  // novelty bandit (which roams profiles × bug kinds) reaches strictly
  // more distinct coverage signatures than the single-profile uniform
  // sweep. Both runs are deterministic, so this is a fixed comparison,
  // not a statistical one.
  const std::uint64_t budget = 40;
  const auto uniform = run_fuzz_sweep(sweep_config(ScheduleMode::kUniform, budget));
  const auto coverage = run_fuzz_sweep(sweep_config(ScheduleMode::kCoverage, budget));
  EXPECT_EQ(uniform.programs, budget);
  EXPECT_EQ(coverage.programs, budget);
  EXPECT_GT(coverage.distinct_signatures, uniform.distinct_signatures);
  // Coverage mode visits several arms, uniform only its one profile's.
  std::set<std::string> uniform_arms, coverage_arms;
  for (const auto& outcome : uniform.outcomes) uniform_arms.insert(outcome.arm);
  for (const auto& outcome : coverage.outcomes) coverage_arms.insert(outcome.arm);
  EXPECT_GT(coverage_arms.size(), uniform_arms.size());
}

TEST(FuzzSweep, RecordDirCapturesAReplayableLogPerProgram) {
  const std::string dir = scratch_dir("record-dir");
  auto config = sweep_config(ScheduleMode::kUniform, 4);
  config.record_dir = dir;
  const auto result = run_fuzz_sweep(config);
  EXPECT_EQ(result.recorded_logs, 4u);
  std::size_t logs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ASSERT_EQ(entry.path().extension(), ".dsmrlog");
    std::string error;
    const auto bytes = record::read_file(entry.path().string(), &error);
    ASSERT_TRUE(bytes.has_value()) << error;
    // Every captured log folds back to its embedded live verdicts, and is
    // self-describing: the metadata carries its full replay coordinate.
    EXPECT_EQ(record::check_record_replay_bytes(*bytes), "");
    const auto log = record::Log::parse(*bytes, &error);
    ASSERT_TRUE(log.has_value()) << error;
    EXPECT_NE(log->find_metadata("program"), nullptr);
    EXPECT_NE(log->find_metadata("schedule_seed"), nullptr);
    ++logs;
  }
  EXPECT_EQ(logs, 4u);
  std::filesystem::remove_all(dir);
}

TEST(FuzzSweep, BudgetCallbackStopsTheSweep) {
  auto config = sweep_config(ScheduleMode::kUniform, 64);
  int polls = 0;
  config.out_of_budget = [&polls]() { return ++polls > 1; };
  const auto result = run_fuzz_sweep(config);
  EXPECT_TRUE(result.budget_hit);
  EXPECT_LT(result.programs, 64u);
}

}  // namespace
}  // namespace dsmr::fuzz
