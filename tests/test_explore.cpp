// The exhaustive-exploration subsystem (ROADMAP item 4): the independence
// relation's commutation property (both execution orders of a co-enabled
// pair reach bit-identical model state iff the relation says they commute,
// and a deliberately coarsened relation fails that test), optimal DPOR
// cross-checked against naive full enumeration (same verdict signature
// set, strictly fewer interleavings, exactly one run per Mazurkiewicz
// trace, no sleep-blocked run), witness logs that replay through the
// offline fold AND back onto real OS threads via ReplayGate, deterministic
// counters, pinned totals for the stateful search (each DFS edge executed
// once), Executor::undo as the exact inverse of execute, and the
// eligibility size gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/ground_truth.hpp"
#include "baseline/lockset.hpp"
#include "explore/dpor.hpp"
#include "explore/executor.hpp"
#include "explore/model.hpp"
#include "fuzz/generate.hpp"
#include "fuzz/harness.hpp"
#include "fuzz/program.hpp"
#include "fuzz/thread_harness.hpp"
#include "record/log.hpp"
#include "record/recorder.hpp"
#include "record/replay.hpp"
#include "util/rng.hpp"

namespace dsmr::explore {
namespace {

fuzz::Op make_access(fuzz::OpKind kind, int area, bool locked = false,
                     int lock = -1) {
  fuzz::Op op;
  op.kind = kind;
  op.area = area;
  op.locked = locked;
  op.lock = lock;
  return op;
}

fuzz::Op make_sleep(sim::Time duration = 100) {
  fuzz::Op op;
  op.kind = fuzz::OpKind::kSleep;
  op.duration = duration;
  return op;
}

/// A validated single-phase program from per-rank op rows.
fuzz::Program make_program(int nprocs, int areas,
                           std::vector<std::vector<fuzz::Op>> rows,
                           fuzz::Expectation expect = fuzz::Expectation::kClean) {
  fuzz::Program program;
  program.nprocs = nprocs;
  program.areas = areas;
  program.area_bytes = 8;
  program.expect = expect;
  fuzz::Phase phase;
  phase.ops = std::move(rows);
  program.phases = {phase};
  std::string error;
  EXPECT_TRUE(fuzz::validate(program, &error)) << error;
  return program;
}

/// The generator slice dsmr_explore --exhaustive runs (small by
/// construction; every planted shape fits the size gate).
fuzz::GenConfig slice_config(std::uint64_t seed, int nprocs = 3) {
  fuzz::GenConfig config;
  config.seed = seed;
  config.nprocs = nprocs;
  config.areas = nprocs + 1;
  config.area_bytes = 8;
  config.phases = 2;
  config.max_ops_per_rank = 1;
  config.max_sync_edges = 1;
  config.collective_fraction = 0.0;
  return config;
}

/// slice_config with dsmr_explore's default planting: half the seeds get a
/// partial-barrier or ack-window bug.
fuzz::GenConfig planted_slice_config(std::uint64_t seed) {
  return fuzz::config_for_seed(slice_config(seed), seed, 0.5,
                               {fuzz::BugKind::kPartialBarrier, fuzz::BugKind::kAckWindow});
}

/// Full model state under one interleaving: scheduler state (cursors,
/// counts, mailbox FIFO order) + the detector fold state of the synthesized
/// event stream. Two interleavings are equivalent iff these match.
std::string model_state_digest(const Executor& executor, const FlatProgram& flat) {
  // The footer plays no part in the fold digest.
  const record::Log log = make_witness_log(flat, executor.events(),
                                           core::DetectorMode::kDualClock, {});
  return executor.scheduler_digest() + "\n--- fold ---\n" +
         record::replay_state_digest(log, core::DetectorMode::kDualClock);
}

/// Property core: random-walks `program`, and at every visited state checks
/// each co-enabled pair both ways. Returns (pairs checked, violations) —
/// a violation is a pair whose commutation disagrees with `independence`.
struct PropertyResult {
  std::uint64_t pairs = 0;
  std::uint64_t dependent_pairs = 0;
  std::uint64_t violations = 0;
};

PropertyResult check_independence_property(const fuzz::Program& program,
                                           std::uint64_t walk_seed,
                                           const IndependenceOptions& independence) {
  PropertyResult result;
  const FlatProgram flat = flatten_program(program);
  util::Rng rng(walk_seed);
  Executor executor(&flat);
  while (!executor.all_done()) {
    const std::vector<Rank> enabled = executor.enabled();
    EXPECT_FALSE(enabled.empty()) << "generated program deadlocked";
    if (enabled.empty()) return result;
    for (std::size_t i = 0; i < enabled.size(); ++i) {
      for (std::size_t j = i + 1; j < enabled.size(); ++j) {
        const Rank a = enabled[i], b = enabled[j];
        const ExecutedStep pa = executor.peek_executed(a);
        const ExecutedStep pb = executor.peek_executed(b);
        const bool dep = dependent(pa, pb, flat.nprocs, independence);
        Executor ab = executor;
        ab.execute(a);
        ab.execute(b);
        Executor ba = executor;
        ba.execute(b);
        ba.execute(a);
        const bool same =
            model_state_digest(ab, flat) == model_state_digest(ba, flat);
        ++result.pairs;
        if (dep) ++result.dependent_pairs;
        if (same != !dep) ++result.violations;
      }
    }
    const std::size_t pick = static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(enabled.size())));
    executor.execute(enabled[pick]);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Satellite 1: the independence relation's commutation property.
// ---------------------------------------------------------------------------

// Both orders of every co-enabled pair reach bit-identical model state
// (scheduler + detector fold) exactly when the relation says they commute —
// over the same generated slice the exhaustive CLI certifies, planted bugs
// included, plus extra walks per program for state diversity.
TEST(Independence, CommutationPropertyOnGeneratedSlice) {
  PropertyResult total;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const fuzz::Program program = fuzz::generate_program(planted_slice_config(seed));
    for (std::uint64_t walk = 0; walk < 3; ++walk) {
      const auto result =
          check_independence_property(program, seed * 100 + walk, {});
      total.pairs += result.pairs;
      total.dependent_pairs += result.dependent_pairs;
      total.violations += result.violations;
    }
  }
  EXPECT_EQ(total.violations, 0u);
  // Teeth: the walks must actually have exercised both sides.
  EXPECT_GT(total.pairs, 500u);
  EXPECT_GT(total.dependent_pairs, 10u);
  EXPECT_GT(total.pairs - total.dependent_pairs, 100u);
}

// Same-area read/read pairs are dependent: ShardedDetector::store_access
// overwrites the stored V clock on every access, reads included, so the
// orders do not commute in detector state. A relation marking them
// independent would fail the property.
TEST(Independence, ReadReadSameAreaIsDependent) {
  const fuzz::Program program = make_program(
      2, 1,
      {{make_access(fuzz::OpKind::kGet, 0)}, {make_access(fuzz::OpKind::kGet, 0)}});
  const FlatProgram flat = flatten_program(program);
  Executor executor(&flat);
  const ExecutedStep p0 = executor.peek_executed(0);
  const ExecutedStep p1 = executor.peek_executed(1);
  EXPECT_TRUE(dependent(p0, p1, flat.nprocs, {}));
  Executor ab = executor;
  ab.execute(0);
  ab.execute(1);
  Executor ba = executor;
  ba.execute(1);
  ba.execute(0);
  EXPECT_NE(model_state_digest(ab, flat), model_state_digest(ba, flat));
}

// The deliberately coarsened relation (accesses dependent iff same HOME)
// must FAIL the iff-property: different areas with a shared home genuinely
// commute in the thread model, so declaring them dependent is a violation.
// This proves the property test has teeth — it rejects wrong relations in
// both directions, not just unsound ones.
TEST(Independence, CoarsenedRelationFailsTheProperty) {
  // Areas 0 and 3 share home 0 when nprocs = 3.
  const fuzz::Program program = make_program(
      3, 4,
      {{make_access(fuzz::OpKind::kPut, 0)}, {make_access(fuzz::OpKind::kPut, 3)}, {}});
  IndependenceOptions exact;
  IndependenceOptions coarse;
  coarse.coarse_same_home = true;

  const auto exact_result = check_independence_property(program, 7, exact);
  EXPECT_EQ(exact_result.violations, 0u);
  EXPECT_GT(exact_result.pairs, 0u);

  const auto coarse_result = check_independence_property(program, 7, coarse);
  EXPECT_GT(coarse_result.violations, 0u);
}

// ---------------------------------------------------------------------------
// Satellite 2: optimal DPOR vs naive full enumeration.
// ---------------------------------------------------------------------------

// Over programs small enough for naive enumeration to finish, DPOR must
// visit the same verdict-signature set with fewer interleavings —
// >= 2x fewer in aggregate (the acceptance floor), strictly fewer on at
// least one program.
TEST(Dpor, MatchesNaiveEnumerationWithFewerInterleavings) {
  std::vector<fuzz::Program> programs;
  // Crafted: two ranks, disjoint then overlapping puts (one racy pair).
  programs.push_back(make_program(
      2, 2,
      {{make_access(fuzz::OpKind::kPut, 0), make_access(fuzz::OpKind::kPut, 1)},
       {make_access(fuzz::OpKind::kPut, 1)}},
      fuzz::Expectation::kSometimes));
  // Generated 2-rank slice (no plantable kinds below 3 ranks: all clean).
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    programs.push_back(fuzz::generate_program(slice_config(seed, 2)));
  }

  ExploreOptions reduced;
  ExploreOptions naive;
  naive.dpor = false;

  std::uint64_t total_reduced = 0, total_naive = 0, strictly_fewer = 0;
  for (const fuzz::Program& program : programs) {
    const ExploreReport fast = explore_program(program, reduced);
    const ExploreReport full = explore_program(program, naive);
    ASSERT_TRUE(fast.complete) << fast.limit;
    ASSERT_TRUE(full.complete) << full.limit;
    EXPECT_EQ(fast.signatures, full.signatures);
    EXPECT_EQ(fast.racy_areas, full.racy_areas);
    EXPECT_LE(fast.interleavings, full.interleavings);
    EXPECT_EQ(fast.deadlocks, 0u);
    EXPECT_EQ(full.deadlocks, 0u);
    if (fast.interleavings < full.interleavings) ++strictly_fewer;
    total_reduced += fast.interleavings;
    total_naive += full.interleavings;
  }
  EXPECT_GT(strictly_fewer, 0u);
  EXPECT_GE(total_naive, 2 * total_reduced)
      << "pruning below the 2x acceptance floor: " << total_naive << " naive vs "
      << total_reduced << " reduced";
}

/// A Mazurkiewicz trace in canonical form, built one transition at a
/// time: rank by rank, each executed transition (step index, and for a wait
/// the send it consumed) with its happens-before clock over dependent().
/// Two runs, or two prefixes, are one trace iff their keys are equal.
class TraceKey {
 public:
  explicit TraceKey(int nprocs) : nprocs_(nprocs) {}

  void push(const ExecutedStep& step) {
    const auto n = static_cast<std::size_t>(nprocs_);
    const std::size_t base = clocks_.size();
    clocks_.resize(base + n, 0);
    for (std::size_t i = 0; i < steps_.size(); ++i) {
      if (!dependent(steps_[i], step, nprocs_)) continue;
      for (std::size_t k = 0; k < n; ++k) {
        clocks_[base + k] = std::max(clocks_[base + k], clocks_[i * n + k]);
      }
    }
    ++clocks_[base + static_cast<std::size_t>(step.rank)];
    steps_.push_back(step);
  }

  void pop() {
    steps_.pop_back();
    clocks_.resize(clocks_.size() - static_cast<std::size_t>(nprocs_));
  }

  std::string key() const {
    const auto n = static_cast<std::size_t>(nprocs_);
    std::string out;
    for (Rank rank = 0; rank < nprocs_; ++rank) {
      const auto mine = [rank](const ExecutedStep& step) { return step.rank == rank; };
      const auto count = std::count_if(steps_.begin(), steps_.end(), mine);
      append(out, static_cast<std::uint64_t>(count));
      for (std::size_t i = 0; i < steps_.size(); ++i) {
        if (!mine(steps_[i])) continue;
        append(out, steps_[i].step_index);
        append(out, static_cast<std::uint64_t>(steps_[i].matched_src + 1));
        append(out, steps_[i].matched_d);
        for (std::size_t k = 0; k < n; ++k) append(out, clocks_[i * n + k]);
      }
    }
    return out;
  }

 private:
  /// Base-128 varint. Each rank's section starts with its event count and
  /// each event is 3 + nprocs values, so the key parses one way only.
  static void append(std::string& out, std::uint64_t value) {
    for (; value >= 0x80; value >>= 7) out += static_cast<char>(0x80 | (value & 0x7f));
    out += static_cast<char>(value);
  }

  int nprocs_;
  std::vector<ExecutedStep> steps_;
  std::vector<std::uint64_t> clocks_;  ///< steps_[i]'s clock at [i * nprocs_].
};

std::string trace_key(const std::vector<ExecutedStep>& run, int nprocs) {
  TraceKey key(nprocs);
  for (const ExecutedStep& step : run) key.push(step);
  return key.key();
}

/// The reference the explorer is checked against: every Mazurkiewicz
/// trace of `program`'s maximal runs, found by a DFS over Executor that
/// tries every enabled rank but expands each prefix trace only once (two
/// prefixes of one trace reach the same state, which the Independence
/// tests check). It finishes on programs far too big for naive
/// enumeration, whose cost is the number of interleavings.
class ReferenceTraces {
 public:
  explicit ReferenceTraces(const fuzz::Program& program)
      : flat_(flatten_program(program)), executor_(&flat_), prefix_(program.nprocs) {
    search();
  }

  const std::set<std::string>& traces() const { return maximal_; }

 private:
  void search() {
    std::string key = prefix_.key();
    if (expanded_.count(key) != 0) return;
    const std::vector<Rank> enabled = executor_.enabled();
    if (enabled.empty()) {
      maximal_.insert(key);
      return;
    }
    expanded_.insert(std::move(key));
    for (const Rank rank : enabled) {
      const ExecutedStep step = executor_.execute(rank);
      prefix_.push(step);
      search();
      prefix_.pop();
      executor_.undo(step);
    }
  }

  FlatProgram flat_;
  Executor executor_;
  TraceKey prefix_;
  std::unordered_set<std::string> expanded_;
  std::set<std::string> maximal_;
};

/// Checks that optimal DPOR over `program` runs exactly one run of every
/// trace the reference finds, and no other, with no sleep-blocked run.
/// Returns the explorer's report (its `interleavings` is the trace count).
ExploreReport expect_one_run_per_trace(const fuzz::Program& program) {
  const ReferenceTraces reference(program);
  std::map<std::string, int> explored;
  ExploreOptions optimal;
  optimal.on_run = [&](const std::vector<ExecutedStep>& run) {
    ++explored[trace_key(run, program.nprocs)];
  };
  const ExploreReport report = explore_program(program, optimal);
  EXPECT_TRUE(report.complete) << report.limit;
  EXPECT_EQ(report.sleep_blocked, 0u);
  EXPECT_EQ(report.interleavings, reference.traces().size());
  EXPECT_EQ(explored.size(), reference.traces().size());
  for (const auto& [key, count] : explored) {
    EXPECT_EQ(count, 1) << "a trace was explored " << count << " times";
    EXPECT_EQ(reference.traces().count(key), 1u)
        << "an explored trace is not a reference trace";
  }
  return report;
}

// Optimality: on the 2-rank slice the naive cross-check runs, the
// reference traces are exactly naive enumeration's runs grouped into
// Mazurkiewicz traces, and the explorer runs exactly one run per trace —
// none missed, none twice, none sleep-blocked.
TEST(Dpor, ExploresExactlyOneRunPerMazurkiewiczTrace) {
  std::uint64_t traces = 0;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const fuzz::Program program = fuzz::generate_program(slice_config(seed, 2));
    std::set<std::string> naive_traces;
    ExploreOptions naive;
    naive.dpor = false;
    naive.on_run = [&](const std::vector<ExecutedStep>& run) {
      naive_traces.insert(trace_key(run, program.nprocs));
    };
    ASSERT_TRUE(explore_program(program, naive).complete) << "seed " << seed;
    EXPECT_EQ(ReferenceTraces(program).traces(), naive_traces) << "seed " << seed;
    traces += expect_one_run_per_trace(program).interleavings;
  }
  EXPECT_EQ(traces, 43u);
}

// Rank 1 puts area 1 then area 0; ranks 0 and 2 put area 0. The sleep-set
// search with Flanagan-Godefroid backtrack sets started a run here that
// ended with every enabled rank asleep; wakeup trees start none, and run
// each of the 6 traces once.
TEST(Dpor, CraftedSleepBlockingProgramRunsNoBlockedRun) {
  const fuzz::Program program = make_program(
      3, 2,
      {{make_access(fuzz::OpKind::kPut, 0)},
       {make_access(fuzz::OpKind::kPut, 1), make_access(fuzz::OpKind::kPut, 0)},
       {make_access(fuzz::OpKind::kPut, 0)}},
      fuzz::Expectation::kSometimes);
  EXPECT_EQ(expect_one_run_per_trace(program).interleavings, 6u);
}

// Rank 0 puts areas 0 then 2, rank 1 puts area 2, rank 2 puts areas 1
// then 0: 4 traces. The backtrack-set search ran 3 of them: it backtracked
// into the racing rank itself whenever that rank was enabled at the racing
// frame, even when it was asleep there and the reversal had to start with
// another rank, so the sleep set dropped the branch.
TEST(Dpor, CraftedProgramGetsEveryTrace) {
  const fuzz::Program program = make_program(
      3, 3,
      {{make_access(fuzz::OpKind::kPut, 0), make_access(fuzz::OpKind::kPut, 2)},
       {make_access(fuzz::OpKind::kPut, 2)},
       {make_access(fuzz::OpKind::kPut, 1), make_access(fuzz::OpKind::kPut, 0)}},
      fuzz::Expectation::kSometimes);
  EXPECT_EQ(expect_one_run_per_trace(program).interleavings, 4u);
}

// Ranks 1 and 2 signal rank 0 on one channel; rank 1 puts area 0 first.
// Rank 0 waits, reads area 0, waits again. The two signals race, and their
// order decides which one the first wait consumes: rank 1's orders the get
// after the put (1 trace, clean), rank 2's leaves them unordered (2
// traces, both racy). Reversing the signal race is the only way to reach
// the racy traces.
TEST(Dpor, SameChannelSignalRaceIsReversed) {
  fuzz::Op wait;
  wait.kind = fuzz::OpKind::kWait;
  wait.tag = 5;
  fuzz::Op signal;
  signal.kind = fuzz::OpKind::kSignal;
  signal.peer = 0;
  signal.tag = 5;
  const fuzz::Program program = make_program(
      3, 1,
      {{wait, make_access(fuzz::OpKind::kGet, 0), wait},
       {make_access(fuzz::OpKind::kPut, 0), signal},
       {signal}},
      fuzz::Expectation::kSometimes);
  const ExploreReport report = expect_one_run_per_trace(program);
  EXPECT_EQ(report.interleavings, 3u);
  EXPECT_EQ(report.racy_interleavings, 2u);
  EXPECT_EQ(report.signatures.size(), 3u);
}

// Optimality on programs too big for naive enumeration: the eligible
// programs of a 300-program block of the benchmark's generator config (3
// ranks, 4 areas, 3 phases, 2 ops, 1 sync edge). The explorer runs every
// reference trace exactly once and none ends sleep-blocked;
// Exhaustive.CertificateAndCrossCheckTotalsArePinned pins the same
// sleep_blocked on the 64-seed certificate slice. The backtrack-set search
// this replaced missed 31 of these traces, in 5 programs.
TEST(Dpor, ExploresEveryTraceOfBenchmarkProgramsOnce) {
  std::uint64_t eligible = 0;
  std::uint64_t traces = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    fuzz::GenConfig config = planted_slice_config(seed);
    config.phases = 3;
    config.max_ops_per_rank = 2;
    const fuzz::Program program = fuzz::generate_program(config);
    if (!exhaustive_eligible(program).eligible) continue;
    ++eligible;
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ExploreReport report = expect_one_run_per_trace(program);
    traces += report.interleavings;
    const std::vector<std::string> failures = check_exhaustive(program, report);
    EXPECT_TRUE(failures.empty()) << failures.front();
  }
  EXPECT_EQ(eligible, 284u);
  EXPECT_EQ(traces, 6619u);
}

// ---------------------------------------------------------------------------
// Tentpole: the exhaustive fuzz-grid invariant.
// ---------------------------------------------------------------------------

// Over the CLI's generated slice every program is eligible, every
// kSometimes planted bug is FOUND somewhere in the reduced space, every
// clean program CERTIFIES clean, and nothing deadlocks.
TEST(Exhaustive, PlantedBugsFoundAndCleanCertifiedOnSlice) {
  std::uint64_t sometimes = 0, clean = 0;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const fuzz::Program program = fuzz::generate_program(planted_slice_config(seed));
    const Eligibility eligibility = exhaustive_eligible(program);
    ASSERT_TRUE(eligibility.eligible) << "seed " << seed << ": " << eligibility.reason;
    const ExploreReport report = explore_program(program);
    const std::vector<std::string> failures = check_exhaustive(program, report);
    EXPECT_TRUE(failures.empty())
        << "seed " << seed << ": " << failures.front();
    if (program.expect == fuzz::Expectation::kSometimes) {
      ++sometimes;
      EXPECT_GE(report.planted_flagged, 1u) << "seed " << seed;
    }
    if (program.expect == fuzz::Expectation::kClean) {
      ++clean;
      EXPECT_TRUE(report.certified_clean()) << "seed " << seed;
    }
  }
  // The slice must actually contain both populations.
  EXPECT_GT(sometimes, 5u);
  EXPECT_GT(clean, 5u);
}

// Identical counters and signature sets across repeated explorations —
// the whole search is deterministic, so CI failures replay exactly.
TEST(Exhaustive, DeterministicAcrossRuns) {
  fuzz::GenConfig config = slice_config(4);
  config.plant_bug = true;
  config.bug_kind = fuzz::BugKind::kPartialBarrier;
  const fuzz::Program program = fuzz::generate_program(config);
  const ExploreReport a = explore_program(program);
  const ExploreReport b = explore_program(program);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.interleavings, b.interleavings);
  EXPECT_EQ(a.deadlocks, b.deadlocks);
  EXPECT_EQ(a.sleep_blocked, b.sleep_blocked);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.pruned_branches, b.pruned_branches);
  EXPECT_EQ(a.racy_interleavings, b.racy_interleavings);
  EXPECT_EQ(a.planted_flagged, b.planted_flagged);
  EXPECT_EQ(a.signatures, b.signatures);
  EXPECT_EQ(a.racy_areas, b.racy_areas);
  EXPECT_EQ(a.witnesses.size(), b.witnesses.size());
}

// The reduced space is pinned exactly: the totals dsmr_explore's 64-seed
// rank-3 certificate and its 32-seed rank-2 naive cross-check report (CI
// asserts the same numbers on the CLI's JSON). A change to the reduction
// must restate these.
TEST(Exhaustive, CertificateAndCrossCheckTotalsArePinned) {
  std::uint64_t interleavings = 0, sleep_blocked = 0, pruned = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const ExploreReport report =
        explore_program(fuzz::generate_program(planted_slice_config(seed)));
    ASSERT_TRUE(report.complete) << "seed " << seed << ": " << report.limit;
    interleavings += report.interleavings;
    sleep_blocked += report.sleep_blocked;
    pruned += report.pruned_branches;
  }
  EXPECT_EQ(interleavings, 137u);
  EXPECT_EQ(sleep_blocked, 0u);
  EXPECT_EQ(pruned, 1501u);

  ExploreOptions naive;
  naive.dpor = false;
  std::uint64_t reduced_total = 0, naive_total = 0;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const fuzz::Program program = fuzz::generate_program(slice_config(seed, 2));
    reduced_total += explore_program(program).interleavings;
    naive_total += explore_program(program, naive).interleavings;
  }
  EXPECT_EQ(reduced_total, 43u);
  EXPECT_EQ(naive_total, 1880u);
}

// The same pin at explore_certify's generator config (3 phases, up to 2
// ops per rank per phase): `dsmr_explore --exhaustive --seeds 1..64
// --phases 3 --ops-per-rank 2`, whose totals CI asserts on the JSON. One
// program (seed 2, ack-window) is over the 8-op gate and is skipped.
TEST(Exhaustive, BenchmarkSizedCertificateTotalsArePinned) {
  std::uint64_t eligible = 0, interleavings = 0, sleep_blocked = 0, pruned = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    fuzz::GenConfig base = slice_config(seed);
    base.phases = 3;
    base.max_ops_per_rank = 2;
    const fuzz::Program program = fuzz::generate_program(fuzz::config_for_seed(
        base, seed, 0.5, {fuzz::BugKind::kPartialBarrier, fuzz::BugKind::kAckWindow}));
    if (!exhaustive_eligible(program).eligible) continue;
    ++eligible;
    const ExploreReport report = explore_program(program);
    const std::vector<std::string> failures = check_exhaustive(program, report);
    EXPECT_TRUE(failures.empty()) << "seed " << seed << ": " << failures.front();
    interleavings += report.interleavings;
    sleep_blocked += report.sleep_blocked;
    pruned += report.pruned_branches;
  }
  EXPECT_EQ(eligible, 63u);
  EXPECT_EQ(interleavings, 2145u);
  EXPECT_EQ(sleep_blocked, 0u);
  EXPECT_EQ(pruned, 17073u);
}

// The search is stateful: `transitions` counts DFS edges, each executed
// once. Rank 0 ticks twice, then both ranks put area 0. The first run takes
// tick, tick, put(r0), put(r1) (4 edges); the race between the puts puts
// put(r1) into the third frame's wakeup tree, and the second run adds
// put(r1), put(r0) below the shared tick prefix (2 edges). A search that
// re-ran the prefix would count 8.
TEST(Exhaustive, EachDfsEdgeExecutesOnce) {
  const fuzz::Program program = make_program(
      2, 1,
      {{make_sleep(), make_sleep(), make_access(fuzz::OpKind::kPut, 0)},
       {make_access(fuzz::OpKind::kPut, 0)}},
      fuzz::Expectation::kRacy);
  const ExploreReport report = explore_program(program);
  ASSERT_TRUE(report.complete) << report.limit;
  EXPECT_EQ(report.interleavings, 2u);
  EXPECT_EQ(report.sleep_blocked, 0u);
  EXPECT_EQ(report.pruned_branches, 2u);  // rank 1 at each tick frame.
  EXPECT_EQ(report.transitions, 6u);
  EXPECT_EQ(report.racy_interleavings, 2u);
}

// Tripping --max-interleavings leaves the report incomplete and
// check_exhaustive reports it as a limit failure (nothing is certified).
TEST(Exhaustive, TrippedBudgetIsALimitFailureNotACertificate) {
  const fuzz::Program program = fuzz::generate_program(slice_config(6));
  ExploreOptions options;
  options.max_interleavings = 1;
  const ExploreReport report = explore_program(program, options);
  EXPECT_FALSE(report.complete);
  EXPECT_FALSE(report.limit.empty());
  EXPECT_FALSE(report.certified_clean());
  const std::vector<std::string> failures = check_exhaustive(program, report);
  ASSERT_FALSE(failures.empty());
  EXPECT_EQ(failures.front().rfind("explore-limit", 0), 0u) << failures.front();
}

// ---------------------------------------------------------------------------
// Satellite 3: witnesses replay — offline fold and real threads.
// ---------------------------------------------------------------------------

// Every exported witness is a complete record/ log whose events fold to the
// signature in its live footer (check_record_replay), and whose gated
// replay on a real ThreadWorld (ReplayGate) reproduces that signature
// bit-identically. One planted program per kSometimes kind.
TEST(Witness, ReplaysThroughFoldAndRealThreads) {
  for (const fuzz::BugKind kind :
       {fuzz::BugKind::kPartialBarrier, fuzz::BugKind::kAckWindow}) {
    // First slice seed whose planted program carries `kind`.
    fuzz::Program program;
    bool found = false;
    for (std::uint64_t seed = 1; seed <= 64 && !found; ++seed) {
      fuzz::GenConfig config = slice_config(seed);
      config.plant_bug = true;
      config.bug_kind = kind;
      program = fuzz::generate_program(config);
      found = exhaustive_eligible(program).eligible;
    }
    ASSERT_TRUE(found) << "no eligible program for kind " << fuzz::to_string(kind);

    const ExploreReport report = explore_program(program);
    ASSERT_TRUE(report.complete) << report.limit;
    ASSERT_GE(report.planted_flagged, 1u) << fuzz::to_string(kind);
    ASSERT_FALSE(report.witnesses.empty());

    for (const record::Log& log : report.witnesses) {
      // The witness round-trips the wire format and folds to its footer.
      std::string error;
      const auto reparsed = record::Log::parse(log.serialize(), &error);
      ASSERT_TRUE(reparsed.has_value()) << error;
      const record::Log& parsed = *reparsed;
      EXPECT_EQ(record::check_record_replay(parsed), "");
      ASSERT_NE(parsed.find_metadata("schedule"), nullptr);

      // Gated replay on real OS threads reproduces the folded verdict.
      fuzz::ThreadRunOptions replaying;
      replaying.replay = &parsed;
      const fuzz::ThreadProgramOutcome outcome =
          fuzz::run_program_threaded(program, replaying);
      const record::AreaIndex areas = record::make_area_index(parsed.areas);
      const record::VerdictSignature signature = record::make_signature(
          areas, outcome.reports, outcome.report.completed,
          outcome.report.stuck_ranks);
      EXPECT_TRUE(signature == parsed.live)
          << fuzz::to_string(kind) << ": thread replay " << signature.to_string()
          << " vs witness " << parsed.live.to_string();
    }
  }
}

// ---------------------------------------------------------------------------
// Executor::undo: the exact inverse of execute.
// ---------------------------------------------------------------------------

/// Random descents and climbs over `program`: execute up to a few enabled
/// steps, saving the scheduler digest and event stream at every level,
/// then undo some of them in reverse and require each level's saved state
/// back. Returns the number of undos checked.
std::uint64_t check_undo_contract(const fuzz::Program& program, std::uint64_t seed) {
  const FlatProgram flat = flatten_program(program);
  util::Rng rng(seed);
  Executor executor(&flat);
  struct Level {
    ExecutedStep exec;
    std::string digest;  ///< before exec.
    std::vector<record::Event> events;
  };
  std::vector<Level> path;
  std::uint64_t undos = 0;
  for (int round = 0; round < 40; ++round) {
    const auto down = 1 + rng.below(6);
    for (std::uint64_t k = 0; k < down; ++k) {
      const std::vector<Rank> enabled = executor.enabled();
      if (enabled.empty()) break;
      const Rank rank = enabled[rng.below(enabled.size())];
      Level level{{}, executor.scheduler_digest(), executor.events()};
      level.exec = executor.execute(rank);
      path.push_back(std::move(level));
    }
    const auto up = rng.below(path.size() + 1);
    for (std::uint64_t k = 0; k < up; ++k) {
      executor.undo(path.back().exec);
      EXPECT_EQ(executor.scheduler_digest(), path.back().digest);
      EXPECT_EQ(executor.events(), path.back().events);
      path.pop_back();
      ++undos;
    }
  }
  while (!path.empty()) {
    executor.undo(path.back().exec);
    EXPECT_EQ(executor.scheduler_digest(), path.back().digest);
    EXPECT_EQ(executor.events(), path.back().events);
    path.pop_back();
    ++undos;
  }
  EXPECT_EQ(executor.steps_executed(), 0u);
  EXPECT_EQ(executor.scheduler_digest(), Executor(&flat).scheduler_digest());
  return undos;
}

// Every explored interleaving is a log, so the offline analyses fold it:
// two unlocked puts race in ground truth and trip lockset; the same puts
// under the area's lock do neither.
TEST(Witness, GroundTruthAndLocksetFoldExplorerLogs) {
  for (const bool locked : {false, true}) {
    const fuzz::Program program = make_program(
        2, 1,
        {{make_access(fuzz::OpKind::kPut, 0, locked)},
         {make_access(fuzz::OpKind::kPut, 0, locked)}});
    const FlatProgram flat = flatten_program(program);
    Executor executor(&flat);
    while (!executor.all_done()) executor.execute(executor.enabled().front());
    const record::Log log =
        make_witness_log(flat, executor.events(), core::DetectorMode::kDualClock, {});
    const analysis::GroundTruth truth = analysis::compute_ground_truth(log);
    const baseline::LocksetResult lockset = baseline::LocksetDetector::analyze(log);
    EXPECT_EQ(truth.pairs.size(), locked ? 0u : 1u) << "locked=" << locked;
    EXPECT_EQ(truth.conflicting_pairs, 1u) << "locked=" << locked;
    EXPECT_EQ(lockset.warnings.size(), locked ? 0u : 1u) << "locked=" << locked;
  }
}

TEST(Executor, UndoRevertsRandomSchedulesOfFuzzedPrograms) {
  std::uint64_t undos = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    undos += check_undo_contract(fuzz::generate_program(planted_slice_config(seed)), seed);
    fuzz::GenConfig bigger = planted_slice_config(seed);
    bigger.phases = 3;
    bigger.max_ops_per_rank = 2;
    undos += check_undo_contract(fuzz::generate_program(bigger), seed + 1000);
  }
  EXPECT_GT(undos, 1000u);
}

// Two senders on one (destination, tag) channel: the mailbox is FIFO, so
// undo must put a consumed signal back at the FRONT and take a queued one
// off the BACK, or the next wait would consume the wrong send.
TEST(Executor, UndoKeepsSameChannelMailboxOrder) {
  fuzz::Op wait;
  wait.kind = fuzz::OpKind::kWait;
  wait.tag = 5;
  fuzz::Op signal;
  signal.kind = fuzz::OpKind::kSignal;
  signal.peer = 0;
  signal.tag = 5;
  const fuzz::Program program = make_program(3, 1, {{wait, wait}, {signal}, {signal}});
  const FlatProgram flat = flatten_program(program);
  Executor executor(&flat);
  const std::string empty = executor.scheduler_digest();
  const ExecutedStep s1 = executor.execute(1);
  const ExecutedStep s2 = executor.execute(2);
  const std::string both = executor.scheduler_digest();
  EXPECT_NE(both.find("mail r0 t5: 1@1 2@1"), std::string::npos) << both;
  const ExecutedStep w1 = executor.execute(0);
  EXPECT_EQ(w1.matched_src, 1);
  executor.undo(w1);
  EXPECT_EQ(executor.scheduler_digest(), both);
  const ExecutedStep again = executor.execute(0);
  EXPECT_EQ(again.matched_src, 1);  // still rank 1's send first.
  const ExecutedStep w2 = executor.execute(0);
  EXPECT_EQ(w2.matched_src, 2);
  executor.undo(w2);
  executor.undo(again);
  EXPECT_EQ(executor.scheduler_digest(), both);
  executor.undo(s2);
  executor.undo(s1);
  EXPECT_EQ(executor.scheduler_digest(), empty);
  EXPECT_TRUE(executor.events().empty());
}

// ---------------------------------------------------------------------------
// The eligibility size gate.
// ---------------------------------------------------------------------------

TEST(Eligibility, GateOnRanksAndNonTickOps) {
  // Too many ranks.
  fuzz::GenConfig big = slice_config(1, 3);
  big.nprocs = 4;
  big.areas = 5;
  const Eligibility ranks = exhaustive_eligible(fuzz::generate_program(big));
  EXPECT_FALSE(ranks.eligible);
  EXPECT_NE(ranks.reason.find("ranks"), std::string::npos);

  // Nine non-tick ops on one rank: over the gate.
  std::vector<fuzz::Op> row;
  for (int i = 0; i < 9; ++i) row.push_back(make_access(fuzz::OpKind::kPut, 0));
  const Eligibility ops =
      exhaustive_eligible(make_program(2, 1, {row, {}}));
  EXPECT_FALSE(ops.eligible);
  EXPECT_NE(ops.reason.find("ops"), std::string::npos);

  // Sleeps flatten to ticks and do not count: 6 sleeps + 2 puts passes.
  std::vector<fuzz::Op> ticks;
  for (int i = 0; i < 6; ++i) ticks.push_back(make_sleep());
  ticks.push_back(make_access(fuzz::OpKind::kPut, 0));
  ticks.push_back(make_access(fuzz::OpKind::kPut, 0));
  EXPECT_TRUE(exhaustive_eligible(make_program(2, 1, {ticks, {}})).eligible);
}

}  // namespace
}  // namespace dsmr::explore
