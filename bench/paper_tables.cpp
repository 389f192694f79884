// The paper's experiments as tables, from the deterministic simulator.
//
// Every number here is exact per seed (virtual time, message and byte
// counts, race counts), so the whole output is pinned: the `paper_tables`
// ctest diffs it against bench/paper_tables.txt, and a claim that rots
// fails tier-1 with the changed line. Regenerate the golden with
// `./build/paper_tables > bench/paper_tables.txt` and explain every diff
// (docs/testing.md, "Paper tables"). Sections, in the paper's order:
//
//  * FIG4, FIG5a-c: each worked figure re-run; its verdict is checked.
//  * FIG3: a put landing mid-get waits for the transfer; the NIC lock
//    manager under a hot lock (checked race-free).
//  * CLAIM-IV.C: races visible with clocks truncated to width k < n.
//  * CLAIM-IV.D + BASE: dual-clock detector, one-clock ablation and the
//    Eraser-style lockset baseline against the offline ground truth.
//  * CLAIM-V.A1: clock storage per area, and the area-granularity ablation.
//  * CLAIM-V.B: the one-sided reduction against a collective allreduce.
//
// CLAIM-V.A2 (communication overhead) lives in bench_overhead, where
// tools/bench_gate.py gates it.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "analysis/ground_truth.hpp"
#include "baseline/lockset.hpp"
#include "bench_common.hpp"
#include "pgas/collectives.hpp"
#include "pgas/shared_array.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"
#include "workload/workloads.hpp"

namespace dsmr::bench {
namespace {

using mem::GlobalAddress;
using runtime::Process;
using runtime::World;

// ---------------------------------------------------------------------------
// FIG4, FIG5a, FIG5b, FIG5c: the paper's verdict on each worked figure.
// ---------------------------------------------------------------------------

struct ScenarioOutcome {
  std::uint64_t races = 0;
  sim::Time virtual_ns = 0;
  std::uint64_t messages = 0;
};

ScenarioOutcome run_figure(World& world) {
  const auto report = world.run();
  DSMR_CHECK(report.completed);
  return {report.race_count, report.end_time, world.traffic().total_messages};
}

World figure_world(int nprocs, bool acked_puts = true) {
  auto config = world_config(nprocs, core::DetectorMode::kDualClock, core::Transport::kHomeSide);
  config.acked_puts = acked_puts;
  return World(config);
}

ScenarioOutcome run_fig4() {
  World world = figure_world(3);
  const GlobalAddress a = world.alloc(1, 8, "a");
  world.spawn(0, [a](Process& p) -> sim::Task { co_await p.get(a, 8); });
  world.spawn(2, [a](Process& p) -> sim::Task {
    co_await p.sleep(10'000);
    co_await p.get(a, 8);
  });
  return run_figure(world);
}

ScenarioOutcome run_fig5a() {
  World world = figure_world(3);
  const GlobalAddress x = world.alloc(1, 8, "x");
  world.spawn(0, [x](Process& p) -> sim::Task {
    co_await p.put_value(x, std::uint64_t{1});
  });
  world.spawn(2, [x](Process& p) -> sim::Task {
    co_await p.sleep(20'000);
    co_await p.put_value(x, std::uint64_t{2});
  });
  return run_figure(world);
}

ScenarioOutcome run_fig5b() {
  World world = figure_world(3);
  const GlobalAddress a = world.alloc(0, 8, "a");
  world.spawn(1, [a](Process& p) -> sim::Task {
    co_await p.get(a, 8);
    p.signal(2, 1);
  });
  world.spawn(2, [a](Process& p) -> sim::Task {
    co_await p.wait_signal(1);
    co_await p.put_value(a, std::uint64_t{'B'});
  });
  return run_figure(world);
}

ScenarioOutcome run_fig5c() {
  // The paper's pure one-sided puts (WorldConfig::acked_puts).
  World world = figure_world(4, /*acked_puts=*/false);
  const GlobalAddress x = world.alloc(1, 8, "x");
  const GlobalAddress y = world.alloc(2, 8, "y");
  const GlobalAddress z = world.alloc(3, 8, "z");
  world.spawn(0, [x, y](Process& p) -> sim::Task {
    co_await p.put_value(x, std::uint64_t{1});
    co_await p.put_value(y, std::uint64_t{2});
    p.signal(2, 1);
  });
  world.spawn(2, [z](Process& p) -> sim::Task {
    co_await p.wait_signal(1);
    co_await p.put_value(z, std::uint64_t{3});
    p.signal(3, 2);
  });
  world.spawn(3, [x](Process& p) -> sim::Task {
    co_await p.wait_signal(2);
    co_await p.put_value(x, std::uint64_t{4});
  });
  return run_figure(world);
}

void print_figures() {
  util::Table table({"figure", "paper verdict", "measured races", "verdict match",
                     "virtual ns", "messages"});
  struct Row {
    const char* name;
    const char* expected;
    bool expect_race;
    ScenarioOutcome outcome;
  };
  const Row rows[] = {
      {"Fig 4 (2 concurrent gets)", "no race", false, run_fig4()},
      {"Fig 5a (m1 x m2 puts)", "race", true, run_fig5a()},
      {"Fig 5b (get -> chained put)", "no race", false, run_fig5b()},
      {"Fig 5c (m1 x m4, async puts)", "race", true, run_fig5c()},
  };
  bool all_match = true;
  for (const auto& row : rows) {
    const bool match = (row.outcome.races > 0) == row.expect_race;
    all_match &= match;
    table.add_row({row.name, row.expected, util::Table::fmt_int(row.outcome.races),
                   match ? "YES" : "NO", util::Table::fmt_int(row.outcome.virtual_ns),
                   util::Table::fmt_int(row.outcome.messages)});
  }
  print_table("=== Paper figures 4, 5a-5c: detection verdicts ===", table);
  DSMR_CHECK_MSG(all_match, "a figure verdict diverged from the paper");
}

// ---------------------------------------------------------------------------
// FIG3: "a put operation is delayed until the end of the get operation on
// the same data", and the NIC lock manager under a hot lock.
// ---------------------------------------------------------------------------

/// Put completion delay beyond its uncontended cost, and the get's
/// duration, when an 8-byte put lands while a `size`-byte get response is
/// in flight. The get holds the area lock until its transfer completes, so
/// the put's delay is essentially the remaining transfer time.
struct Fig3Point {
  double put_delay_ns = 0;
  double get_ns = 0;
};

Fig3Point measure_fig3(std::uint32_t size) {
  auto config = world_config(3, core::DetectorMode::kOff, core::Transport::kHomeSide);
  config.latency.jitter_ns = 0;
  config.segment_bytes = size + 4096;

  sim::Time solo_put = 0;  // the uncontended 8-byte put first.
  {
    World world(config);
    const GlobalAddress x = world.alloc(1, size, "x");
    world.spawn(0, [x, &solo_put](Process& p) -> sim::Task {
      const sim::Time start = p.now();
      co_await p.put_value(x, std::uint64_t{1});
      solo_put = p.now() - start;
    });
    DSMR_CHECK(world.run().completed);
  }

  World world(config);
  const GlobalAddress x = world.alloc(1, size, "x");
  sim::Time put_cost = 0, get_cost = 0;
  world.spawn(2, [x, size, &get_cost](Process& p) -> sim::Task {
    const sim::Time start = p.now();
    co_await p.get(x, size);
    get_cost = p.now() - start;
  });
  world.spawn(0, [x, &put_cost](Process& p) -> sim::Task {
    co_await p.sleep(5'000);  // land inside the get's transfer window.
    const sim::Time start = p.now();
    co_await p.put_value(x, std::uint64_t{2});
    put_cost = p.now() - start;
  });
  DSMR_CHECK(world.run().completed);
  return {static_cast<double>(put_cost) - static_cast<double>(solo_put),
          static_cast<double>(get_cost)};
}

/// Hot-area stress: every rank does locked increments on one counter.
struct ContentionPoint {
  double virtual_ns_per_op = 0;
  std::uint64_t contended = 0;
  std::uint64_t max_queue = 0;
};

ContentionPoint measure_contention(int nprocs) {
  auto config = world_config(nprocs, core::DetectorMode::kDualClock, core::Transport::kHomeSide);
  config.latency.jitter_ns = 0;
  World world(config);
  const GlobalAddress counter = world.alloc(0, 8, "hot");
  constexpr int kOpsPerRank = 10;
  for (Rank r = 0; r < nprocs; ++r) {
    world.spawn(r, [counter](Process& p) -> sim::Task {
      for (int i = 0; i < kOpsPerRank; ++i) {
        co_await p.lock(counter);
        const auto v = co_await p.get_value<std::uint64_t>(counter);
        co_await p.put_value(counter, v + 1);
        co_await p.unlock(counter);
      }
    });
  }
  const auto report = world.run();
  DSMR_CHECK(report.completed);
  DSMR_CHECK(world.races().count() == 0);
  ContentionPoint point;
  point.virtual_ns_per_op =
      static_cast<double>(report.end_time) / (static_cast<double>(nprocs) * kOpsPerRank);
  point.contended = world.nic(0).locks().stats().contended;
  point.max_queue = world.nic(0).locks().stats().max_queue;
  return point;
}

void print_fig3_and_locks() {
  {
    util::Table table({"get transfer bytes", "get ns", "put delay ns", "delayed?"});
    for (const std::uint32_t size : {4096u, 65536u, 262144u, 1048576u}) {
      const auto point = measure_fig3(size);
      table.add_row({util::Table::fmt_int(size), util::Table::fmt(point.get_ns, 0),
                     util::Table::fmt(point.put_delay_ns, 0),
                     point.put_delay_ns > 0 ? "yes (Fig. 3)" : "no"});
    }
    print_table("=== FIG3: a put landing mid-get waits for the transfer to finish ===",
                table);
  }
  util::Table table({"n procs", "virtual ns/op", "contended acquires", "max queue"});
  for (const int n : {2, 4, 8, 16}) {
    const auto point = measure_contention(n);
    table.add_row({util::Table::fmt_int(static_cast<std::uint64_t>(n)),
                   util::Table::fmt(point.virtual_ns_per_op, 0),
                   util::Table::fmt_int(point.contended), util::Table::fmt_int(point.max_queue)});
  }
  print_table("=== NIC lock manager under hot-area contention (locked RMW) ===", table);
}

// ---------------------------------------------------------------------------
// CLAIM-IV.C: "the size of the vector clocks must be at least n
// [Charron-Bost]. As a consequence, the size of the clocks cannot be
// reduced." Ground truth recomputed with clocks truncated to k components.
// Projection preserves domination, so truncation only loses races.
// ---------------------------------------------------------------------------

struct SweepResult {
  std::uint64_t truth = 0;
  std::vector<analysis::TruncationPoint> points;
};

SweepResult run_sweep(int nprocs, std::uint64_t seed) {
  World world(world_config(nprocs, core::DetectorMode::kDualClock, core::Transport::kHomeSide,
                           seed));
  world.record();
  workload::RandomConfig wl;
  wl.areas = std::max(2, nprocs / 2);
  wl.ops_per_proc = 30;
  wl.write_fraction = 0.7;
  wl.seed = seed * 131;
  workload::spawn_random(world, wl);
  DSMR_CHECK(world.run().completed);
  return {analysis::compute_ground_truth(world.log()).pairs.size(),
          analysis::truncation_sweep(world.log(), static_cast<std::size_t>(nprocs))};
}

void print_clock_size() {
  std::printf(
      "\n=== CLAIM-IV.C: clock width vs races seen (truncation ablation) ===\n"
      "Truncation keeps the first k components and spawn_random homes its n/2\n"
      "areas on ranks 0..n/2-1, so width n/2 already sees every race in these\n"
      "runs. Full width n is needed in general: tests/test_analysis.cpp\n"
      "(Truncation.HomeOnLastRankHidesARaceBelowFullWidth) homes the area on\n"
      "rank n-1 and misses a race at every k < n.\n");
  for (const int nprocs : {4, 8, 16}) {
    // Aggregate over several seeds so the trend is not one schedule's luck.
    std::vector<std::uint64_t> detected(static_cast<std::size_t>(nprocs), 0);
    std::uint64_t truth_total = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const auto result = run_sweep(nprocs, seed);
      truth_total += result.truth;
      for (std::size_t k = 0; k < result.points.size(); ++k) {
        detected[k] += result.points[k].detected;
      }
    }
    util::Table table({"clock width k", "races detected", "missed", "detection rate",
                       "wire B/clock"});
    for (std::size_t k = 0; k < detected.size(); ++k) {
      // The wire cost a width-k clock would pay under the compact encoding
      // (zero-history lower bound: one varint per component).
      const auto wire_bytes = clocks::VectorClock(k + 1).wire_size();
      const double rate = truth_total == 0 ? 1.0
                                           : static_cast<double>(detected[k]) /
                                                 static_cast<double>(truth_total);
      table.add_row({util::Table::fmt_int(k + 1), util::Table::fmt_int(detected[k]),
                     util::Table::fmt_int(truth_total - detected[k]),
                     util::Table::fmt(rate, 3), util::Table::fmt_int(wire_bytes)});
    }
    print_table("=== CLAIM-IV.C: races visible with width-k clocks (n=" +
                    std::to_string(nprocs) + ", 5 seeds) ===",
                table);
  }
}

// ---------------------------------------------------------------------------
// CLAIM-IV.D (dual-clock refinement) and BASE (lockset comparison), against
// the offline ground truth:
//  * the dual-clock detector: precision 1.0 by construction, pairwise
//    recall < 1 (only the latest access is compared), area recall;
//  * the single-clock ablation: read-read false positives (the paper's
//    §IV.D motivation) and its read false negatives (V absorbs knowledge
//    W never saw);
//  * the Eraser-style lockset baseline: flags locking-discipline violations,
//    so false positives on message- or barrier-synchronized programs.
// ---------------------------------------------------------------------------

struct QualityRow {
  std::string workload;
  std::uint64_t truth_pairs = 0;
  double dual_precision = 0, dual_recall = 0, dual_area_recall = 0;
  std::uint64_t single_fp = 0, single_fn = 0;
  std::uint64_t lockset_flags = 0;
  bool lockset_fp = false;
};

template <typename SpawnFn>
QualityRow measure_quality(const std::string& name, int nprocs, std::uint64_t seed,
                           SpawnFn spawn) {
  World world(world_config(nprocs, core::DetectorMode::kDualClock, core::Transport::kHomeSide,
                           seed));
  world.record();
  spawn(world);
  DSMR_CHECK(world.run().completed);

  QualityRow row;
  row.workload = name;
  const auto truth = analysis::compute_ground_truth(world.log());
  row.truth_pairs = truth.pairs.size();

  const auto acc = analysis::evaluate(world.log(), world.races());
  row.dual_precision = acc.precision();
  row.dual_recall = acc.pair_recall();
  row.dual_area_recall = acc.area_recall();

  const auto single = analysis::verdicts_of(
      record::replay_fold(world.log(), core::DetectorMode::kSingleClock).reports);
  const auto dual = analysis::verdicts_of(
      record::replay_fold(world.log(), core::DetectorMode::kDualClock).reports);
  for (const auto& pair : single.pairs) {
    if (truth.pairs.count(pair) == 0) ++row.single_fp;
  }
  for (const auto& pair : dual.pairs) {
    if (single.pairs.count(pair) == 0) ++row.single_fn;  // dual caught, single blind.
  }

  const auto lockset = baseline::LocksetDetector::analyze(world.log());
  row.lockset_flags = lockset.warnings.size();
  row.lockset_fp = row.truth_pairs == 0 && !lockset.warnings.empty();
  return row;
}

std::vector<QualityRow> quality_rows() {
  std::vector<QualityRow> rows;
  rows.push_back(measure_quality("random write-heavy", 6, 21, [](World& world) {
    workload::RandomConfig wl;
    wl.areas = 4;
    wl.ops_per_proc = 40;
    wl.write_fraction = 0.7;
    workload::spawn_random(world, wl);
  }));
  rows.push_back(measure_quality("random read-heavy", 6, 22, [](World& world) {
    workload::RandomConfig wl;
    wl.areas = 4;
    wl.ops_per_proc = 40;
    wl.write_fraction = 0.1;
    workload::spawn_random(world, wl);
  }));
  rows.push_back(measure_quality("master/worker (benign)", 5, 23, [](World& world) {
    workload::MasterWorkerConfig wl;
    wl.tasks_per_worker = 4;
    workload::spawn_master_worker(world, wl);
  }));
  rows.push_back(measure_quality("stencil correct", 4, 24, [](World& world) {
    workload::StencilConfig wl;
    wl.cells_per_rank = 8;
    wl.iters = 4;
    workload::spawn_stencil(world, wl);
  }));
  rows.push_back(measure_quality("stencil buggy", 4, 25, [](World& world) {
    workload::StencilConfig wl;
    wl.cells_per_rank = 8;
    wl.iters = 4;
    wl.buggy = true;
    workload::spawn_stencil(world, wl);
  }));
  rows.push_back(measure_quality("histogram locked", 4, 26, [](World& world) {
    workload::HistogramConfig wl;
    wl.bins = 6;
    wl.increments_per_rank = 25;
    wl.locked = true;
    workload::spawn_histogram(world, wl);
  }));
  rows.push_back(measure_quality("histogram unlocked", 4, 27, [](World& world) {
    workload::HistogramConfig wl;
    wl.bins = 6;
    wl.increments_per_rank = 25;
    workload::spawn_histogram(world, wl);
  }));
  rows.push_back(measure_quality("pipeline (msg-ordered)", 4, 28, [](World& world) {
    workload::PipelineConfig wl;
    wl.tokens = 8;
    workload::spawn_pipeline(world, wl);
  }));
  return rows;
}

void print_precision() {
  util::Table table({"workload", "true races", "dual prec", "dual recall", "area recall",
                     "single FP", "single FN", "lockset flags"});
  for (const auto& row : quality_rows()) {
    std::string lockset = util::Table::fmt_int(row.lockset_flags);
    if (row.lockset_fp) lockset += " (FP)";
    table.add_row({row.workload, util::Table::fmt_int(row.truth_pairs),
                   util::Table::fmt(row.dual_precision, 2), util::Table::fmt(row.dual_recall, 2),
                   util::Table::fmt(row.dual_area_recall, 2), util::Table::fmt_int(row.single_fp),
                   util::Table::fmt_int(row.single_fn), lockset});
  }
  print_table(
      "=== CLAIM-IV.D + BASE: detection quality vs offline ground truth ===\n"
      "dual = the paper's V+W detector; single = one-clock ablation;\n"
      "lockset = Eraser-style baseline (flags discipline, not causality)",
      table);
}

// ---------------------------------------------------------------------------
// CLAIM-V.A1: "a clock must be used for each shared piece of data. As a
// consequence, our algorithm has an overhead on data storage space", and
// the dual-clock refinement "doubles the necessary amount of memory"
// (§IV.D). Clock bytes by process count and area count, plus the
// SharedArray chunk-granularity trade-off (metadata vs precision).
// ---------------------------------------------------------------------------

std::size_t metadata_bytes(int nprocs, int areas) {
  World world(world_config(nprocs, core::DetectorMode::kDualClock, core::Transport::kHomeSide));
  for (int a = 0; a < areas; ++a) {
    std::string name = "a";  // appended: GCC 12 misreports "a" + ... under -Wrestrict.
    name += std::to_string(a);
    world.alloc(static_cast<Rank>(a % nprocs), 8, std::move(name));
  }
  return world.total_clock_bytes();
}

/// Granularity ablation: same 64-element array, different chunk sizes; two
/// writers touch *different* elements of the same chunk, so coarse chunks
/// false-share and fine chunks pay more metadata.
struct GranularityPoint {
  std::size_t clock_bytes;
  std::uint64_t false_reports;
};

GranularityPoint measure_granularity(std::size_t chunk) {
  World world(world_config(3, core::DetectorMode::kDualClock, core::Transport::kHomeSide));
  auto array = pgas::SharedArray<std::uint64_t>::allocate(world, 64, pgas::Distribution::kBlock,
                                                          chunk, "g");
  // Ranks 1 and 2 write disjoint even/odd elements of rank 0's block: a
  // correct program; any report is a granularity artifact.
  world.spawn(1, [array](Process& p) -> sim::Task {
    for (std::size_t i = 0; i < 16; i += 2) co_await array.write(p, i, 1);
  });
  world.spawn(2, [array](Process& p) -> sim::Task {
    for (std::size_t i = 1; i < 16; i += 2) co_await array.write(p, i, 2);
  });
  DSMR_CHECK(world.run().completed);
  return {world.total_clock_bytes(), world.races().count()};
}

void print_clock_memory() {
  {
    util::Table table({"n procs", "areas", "clock bytes", "per area", "fixed model (2*8*n)",
                       "saving"});
    for (const int n : {2, 4, 8, 16, 32}) {
      const auto fixed_per_area = 2u * sizeof(ClockValue) * static_cast<std::uint64_t>(n);
      for (const int areas : {16, 64, 256}) {
        const auto bytes = metadata_bytes(n, areas);
        const auto fixed = fixed_per_area * static_cast<std::uint64_t>(areas);
        table.add_row({util::Table::fmt_int(static_cast<std::uint64_t>(n)),
                       util::Table::fmt_int(static_cast<std::uint64_t>(areas)),
                       util::Table::fmt_int(bytes),
                       util::Table::fmt_int(bytes / static_cast<std::size_t>(areas)),
                       util::Table::fmt_int(fixed_per_area),
                       util::Table::fmt(static_cast<double>(fixed) / static_cast<double>(bytes),
                                        1)});
      }
    }
    print_table(
        "=== CLAIM-V.A1: clock storage per area (compact/epoch accounting) ===\n"
        "(vs the paper's fixed 2 clocks x n entries x 8 bytes model)",
        table);
  }
  util::Table table({"chunk elems", "areas", "clock bytes", "false reports", "verdict"});
  for (const std::size_t chunk : {1u, 2u, 4u, 8u, 16u}) {
    const auto point = measure_granularity(chunk);
    table.add_row({util::Table::fmt_int(chunk),
                   util::Table::fmt_int(64u / chunk + (64u % chunk ? 1 : 0)),
                   util::Table::fmt_int(point.clock_bytes),
                   util::Table::fmt_int(point.false_reports),
                   point.false_reports == 0 ? "precise" : "false sharing"});
  }
  print_table(
      "=== Granularity ablation: metadata vs detection precision ===\n"
      "(disjoint writers; any report is an artifact of coarse areas)",
      table);
}

// ---------------------------------------------------------------------------
// CLAIM-V.B: "a process can perform a reduction ... without any
// participation for the other processes, by fetching the data remotely."
// The one-sided reduction loads only the root; the collective allreduce
// involves everyone but synchronizes as a side effect.
// ---------------------------------------------------------------------------

struct ReduceCosts {
  double virtual_ns = 0;
  double messages = 0;
};

ReduceCosts measure_onesided(int nprocs) {
  auto config = world_config(nprocs, core::DetectorMode::kDualClock, core::Transport::kHomeSide);
  config.latency.jitter_ns = 0;
  World world(config);
  std::vector<GlobalAddress> cells;
  for (Rank r = 0; r < nprocs; ++r) cells.push_back(world.alloc(r, 8, "c"));

  sim::Time reduce_time = 0;
  for (Rank r = 0; r < nprocs; ++r) {
    world.spawn(r, [cells, r, &reduce_time, &world](Process& p) -> sim::Task {
      pgas::Team team(p);
      co_await p.put_value(cells[static_cast<std::size_t>(r)], static_cast<std::uint64_t>(r));
      co_await team.barrier();
      if (p.rank() == 0) {
        world.reset_traffic();  // measure only the reduction itself.
        const sim::Time start = p.now();
        co_await pgas::onesided_reduce(p, cells, std::uint64_t{0},
                                       [](std::uint64_t a, std::uint64_t b) { return a + b; });
        reduce_time = p.now() - start;
      }
    });
  }
  DSMR_CHECK(world.run().completed);
  return {static_cast<double>(reduce_time), static_cast<double>(world.traffic().total_messages)};
}

ReduceCosts measure_collective(int nprocs) {
  auto config = world_config(nprocs, core::DetectorMode::kDualClock, core::Transport::kHomeSide);
  config.latency.jitter_ns = 0;
  World world(config);
  sim::Time reduce_time = 0;
  for (Rank r = 0; r < nprocs; ++r) {
    world.spawn(r, [r, &reduce_time, &world](Process& p) -> sim::Task {
      pgas::Team team(p);
      co_await team.barrier();
      if (p.rank() == 0) world.reset_traffic();
      const sim::Time start = p.now();
      co_await team.allreduce(static_cast<std::uint64_t>(r),
                              [](std::uint64_t a, std::uint64_t b) { return a + b; });
      if (p.rank() == 0) reduce_time = p.now() - start;
    });
  }
  DSMR_CHECK(world.run().completed);
  return {static_cast<double>(reduce_time), static_cast<double>(world.traffic().total_messages)};
}

void print_reduction() {
  util::Table table({"n procs", "one-sided ns", "msgs", "collective ns", "msgs",
                     "one-sided/collective"});
  for (const int n : {2, 4, 8, 16, 32}) {
    const auto onesided = measure_onesided(n);
    const auto collective = measure_collective(n);
    table.add_row({util::Table::fmt_int(static_cast<std::uint64_t>(n)),
                   util::Table::fmt(onesided.virtual_ns, 0), util::Table::fmt(onesided.messages, 0),
                   util::Table::fmt(collective.virtual_ns, 0),
                   util::Table::fmt(collective.messages, 0),
                   util::Table::fmt(onesided.virtual_ns / collective.virtual_ns, 2)});
  }
  print_table(
      "=== CLAIM-V.B: one-sided (non-collective) reduction vs allreduce ===\n"
      "one-sided: root fetches serially, O(n) root-side latency, targets idle;\n"
      "collective: O(log n) critical path, everyone participates",
      table);
}

}  // namespace
}  // namespace dsmr::bench

int main(int argc, char** argv) {
  dsmr::util::Cli cli(argc, argv);
  if (!cli.ok()) return 2;
  dsmr::bench::print_figures();
  dsmr::bench::print_fig3_and_locks();
  dsmr::bench::print_clock_size();
  dsmr::bench::print_precision();
  dsmr::bench::print_clock_memory();
  dsmr::bench::print_reduction();
  return 0;
}
