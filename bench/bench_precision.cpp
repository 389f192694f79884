// EXPERIMENTS: CLAIM-IV.D (dual-clock refinement) and BASE (lockset
// comparison).
//
// Quantifies, against the offline ground truth:
//  * the dual-clock detector: precision 1.0 by construction, pairwise
//    recall < 1 (only the latest access is compared), area recall;
//  * the single-clock ablation: read-read false positives (the paper's
//    §IV.D motivation) and its read false negatives (V absorbs knowledge
//    W never saw — the ablation table this bench prints counts both);
//  * the Eraser-style lockset baseline: flags locking-discipline violations
//    — false positives on message-/barrier-synchronized programs.
#include <benchmark/benchmark.h>

#include "analysis/ground_truth.hpp"
#include "baseline/lockset.hpp"
#include "bench_common.hpp"
#include "util/assert.hpp"
#include "workload/workloads.hpp"

namespace dsmr::bench {
namespace {

using runtime::World;

struct QualityRow {
  std::string workload;
  std::uint64_t truth_pairs = 0;
  double dual_precision = 0, dual_recall = 0, dual_area_recall = 0;
  std::uint64_t single_fp = 0, single_fn = 0;
  std::uint64_t lockset_flags = 0;
  bool lockset_fp = false;
};

template <typename SpawnFn>
QualityRow measure(const std::string& name, int nprocs, std::uint64_t seed,
                   SpawnFn spawn) {
  auto config = world_config(nprocs, core::DetectorMode::kDualClock,
                             core::Transport::kHomeSide, seed);
  World world(config);
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

std::vector<QualityRow> all_rows() {
  std::vector<QualityRow> rows;
  rows.push_back(measure("random write-heavy", 6, 21, [](World& world) {
    workload::RandomConfig wl;
    wl.areas = 4;
    wl.ops_per_proc = 40;
    wl.write_fraction = 0.7;
    workload::spawn_random(world, wl);
  }));
  rows.push_back(measure("random read-heavy", 6, 22, [](World& world) {
    workload::RandomConfig wl;
    wl.areas = 4;
    wl.ops_per_proc = 40;
    wl.write_fraction = 0.1;
    workload::spawn_random(world, wl);
  }));
  rows.push_back(measure("master/worker (benign)", 5, 23, [](World& world) {
    workload::MasterWorkerConfig wl;
    wl.tasks_per_worker = 4;
    workload::spawn_master_worker(world, wl);
  }));
  rows.push_back(measure("stencil correct", 4, 24, [](World& world) {
    workload::StencilConfig wl;
    wl.cells_per_rank = 8;
    wl.iters = 4;
    workload::spawn_stencil(world, wl);
  }));
  rows.push_back(measure("stencil buggy", 4, 25, [](World& world) {
    workload::StencilConfig wl;
    wl.cells_per_rank = 8;
    wl.iters = 4;
    wl.buggy = true;
    workload::spawn_stencil(world, wl);
  }));
  rows.push_back(measure("histogram locked", 4, 26, [](World& world) {
    workload::HistogramConfig wl;
    wl.bins = 6;
    wl.increments_per_rank = 25;
    wl.locked = true;
    workload::spawn_histogram(world, wl);
  }));
  rows.push_back(measure("histogram unlocked", 4, 27, [](World& world) {
    workload::HistogramConfig wl;
    wl.bins = 6;
    wl.increments_per_rank = 25;
    workload::spawn_histogram(world, wl);
  }));
  rows.push_back(measure("pipeline (msg-ordered)", 4, 28, [](World& world) {
    workload::PipelineConfig wl;
    wl.tokens = 8;
    workload::spawn_pipeline(world, wl);
  }));
  return rows;
}

void BM_QualitySweep(benchmark::State& state) {
  for (auto _ : state) {
    const auto rows = all_rows();
    benchmark::DoNotOptimize(rows.data());
  }
}
BENCHMARK(BM_QualitySweep);

void print_summary() {
  util::Table table({"workload", "true races", "dual prec", "dual recall",
                     "area recall", "single FP", "single FN", "lockset flags"});
  for (const auto& row : all_rows()) {
    std::string lockset = util::Table::fmt_int(row.lockset_flags);
    if (row.lockset_fp) lockset += " (FP)";
    table.add_row({row.workload, util::Table::fmt_int(row.truth_pairs),
                   util::Table::fmt(row.dual_precision, 2),
                   util::Table::fmt(row.dual_recall, 2),
                   util::Table::fmt(row.dual_area_recall, 2),
                   util::Table::fmt_int(row.single_fp),
                   util::Table::fmt_int(row.single_fn), lockset});
  }
  print_table(
      "=== CLAIM-IV.D + BASE: detection quality vs offline ground truth ===\n"
      "dual = the paper's V+W detector; single = one-clock ablation;\n"
      "lockset = Eraser-style baseline (flags discipline, not causality)",
      table);
}

}  // namespace
}  // namespace dsmr::bench

int main(int argc, char** argv) {
  dsmr::bench::init_json(&argc, argv, "precision");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dsmr::bench::print_summary();
  dsmr::bench::write_json();
  return 0;
}
