// EXPERIMENTS: FIG4, FIG5a, FIG5b, FIG5c.
//
// Re-runs each worked figure of the paper as a simulation, asserts the
// paper's verdict, and reports the scenario's simulated duration and wire
// traffic. The google-benchmark timings measure the simulator's wall-clock
// cost per scenario.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "util/assert.hpp"

namespace dsmr::bench {
namespace {

using mem::GlobalAddress;
using runtime::Process;
using runtime::World;

struct ScenarioOutcome {
  std::uint64_t races = 0;
  sim::Time virtual_ns = 0;
  std::uint64_t messages = 0;
};

ScenarioOutcome run_fig4() {
  World world(world_config(3, core::DetectorMode::kDualClock, core::Transport::kHomeSide));
  const GlobalAddress a = world.alloc(1, 8, "a");
  world.spawn(0, [a](Process& p) -> sim::Task { co_await p.get(a, 8); });
  world.spawn(2, [a](Process& p) -> sim::Task {
    co_await p.sleep(10'000);
    co_await p.get(a, 8);
  });
  const auto report = world.run();
  DSMR_CHECK(report.completed);
  return {report.race_count, report.end_time, world.traffic().total_messages};
}

ScenarioOutcome run_fig5a() {
  World world(world_config(3, core::DetectorMode::kDualClock, core::Transport::kHomeSide));
  const GlobalAddress x = world.alloc(1, 8, "x");
  world.spawn(0, [x](Process& p) -> sim::Task {
    co_await p.put_value(x, std::uint64_t{1});
  });
  world.spawn(2, [x](Process& p) -> sim::Task {
    co_await p.sleep(20'000);
    co_await p.put_value(x, std::uint64_t{2});
  });
  const auto report = world.run();
  DSMR_CHECK(report.completed);
  return {report.race_count, report.end_time, world.traffic().total_messages};
}

ScenarioOutcome run_fig5b() {
  World world(world_config(3, core::DetectorMode::kDualClock, core::Transport::kHomeSide));
  const GlobalAddress a = world.alloc(0, 8, "a");
  world.spawn(1, [a](Process& p) -> sim::Task {
    co_await p.get(a, 8);
    p.signal(2, 1);
  });
  world.spawn(2, [a](Process& p) -> sim::Task {
    co_await p.wait_signal(1);
    co_await p.put_value(a, std::uint64_t{'B'});
  });
  const auto report = world.run();
  DSMR_CHECK(report.completed);
  return {report.race_count, report.end_time, world.traffic().total_messages};
}

ScenarioOutcome run_fig5c() {
  auto config = world_config(4, core::DetectorMode::kDualClock, core::Transport::kHomeSide);
  config.acked_puts = false;  // the paper's pure one-sided puts (WorldConfig::acked_puts).
  World world(config);
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
  const auto report = world.run();
  DSMR_CHECK(report.completed);
  return {report.race_count, report.end_time, world.traffic().total_messages};
}

void BM_Fig4(benchmark::State& state) {
  ScenarioOutcome outcome;
  for (auto _ : state) outcome = run_fig4();
  state.counters["races"] = static_cast<double>(outcome.races);
  state.counters["virtual_ns"] = static_cast<double>(outcome.virtual_ns);
}
BENCHMARK(BM_Fig4);

void BM_Fig5a(benchmark::State& state) {
  ScenarioOutcome outcome;
  for (auto _ : state) outcome = run_fig5a();
  state.counters["races"] = static_cast<double>(outcome.races);
  state.counters["virtual_ns"] = static_cast<double>(outcome.virtual_ns);
}
BENCHMARK(BM_Fig5a);

void BM_Fig5b(benchmark::State& state) {
  ScenarioOutcome outcome;
  for (auto _ : state) outcome = run_fig5b();
  state.counters["races"] = static_cast<double>(outcome.races);
  state.counters["virtual_ns"] = static_cast<double>(outcome.virtual_ns);
}
BENCHMARK(BM_Fig5b);

void BM_Fig5c(benchmark::State& state) {
  ScenarioOutcome outcome;
  for (auto _ : state) outcome = run_fig5c();
  state.counters["races"] = static_cast<double>(outcome.races);
  state.counters["virtual_ns"] = static_cast<double>(outcome.virtual_ns);
}
BENCHMARK(BM_Fig5c);

void print_summary() {
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
                   match ? "YES" : "NO",
                   util::Table::fmt_int(row.outcome.virtual_ns),
                   util::Table::fmt_int(row.outcome.messages)});
  }
  print_table("=== Paper figures 4, 5a-5c: detection verdicts ===", table);
  DSMR_CHECK_MSG(all_match, "a figure verdict diverged from the paper");
}

}  // namespace
}  // namespace dsmr::bench

int main(int argc, char** argv) {
  dsmr::bench::init_json(&argc, argv, "scenarios");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dsmr::bench::print_summary();
  dsmr::bench::write_json();
  return 0;
}
