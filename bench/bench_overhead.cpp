// EXPERIMENTS: CLAIM-V.A2 (+ FIG2 accounting).
//
// "Our algorithm has an overhead on ... communication performance."
// Quantified: virtual put/get latency, messages per operation, and bytes
// per operation, for the detector off vs on, across the three wire
// transports and process counts around the paper's debugging scale.
#include <chrono>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/assert.hpp"

namespace dsmr::bench {
namespace {

using mem::GlobalAddress;
using runtime::Process;
using runtime::World;

struct OpCosts {
  double put_virtual_ns = 0;
  double get_virtual_ns = 0;
  double put_messages = 0;
  double get_messages = 0;
  double put_bytes = 0;
  double get_bytes = 0;
};

/// Measures steady-state per-op virtual cost for one configuration: one
/// initiator hammering a remote area (no contention — pure protocol cost).
OpCosts measure(int nprocs, core::DetectorMode mode, core::Transport transport) {
  constexpr int kOps = 64;
  OpCosts costs;

  {  // puts
    auto config = world_config(nprocs, mode, transport);
    config.latency.jitter_ns = 0;
    World world(config);
    const GlobalAddress x = world.alloc(nprocs - 1, 8, "x");
    sim::Time busy = 0;
    world.spawn(0, [x, &busy](Process& p) -> sim::Task {
      const sim::Time start = p.now();
      for (int i = 0; i < kOps; ++i) co_await p.put_value(x, std::uint64_t{1});
      busy = p.now() - start;
    });
    DSMR_CHECK(world.run().completed);
    costs.put_virtual_ns = static_cast<double>(busy) / kOps;
    costs.put_messages =
        static_cast<double>(world.traffic().total_messages) / kOps;
    costs.put_bytes = static_cast<double>(world.traffic().total_bytes) / kOps;
  }
  {  // gets
    auto config = world_config(nprocs, mode, transport);
    config.latency.jitter_ns = 0;
    World world(config);
    const GlobalAddress x = world.alloc(nprocs - 1, 8, "x");
    sim::Time busy = 0;
    world.spawn(0, [x, &busy](Process& p) -> sim::Task {
      const sim::Time start = p.now();
      for (int i = 0; i < kOps; ++i) co_await p.get(x, 8);
      busy = p.now() - start;
    });
    DSMR_CHECK(world.run().completed);
    costs.get_virtual_ns = static_cast<double>(busy) / kOps;
    costs.get_messages =
        static_cast<double>(world.traffic().total_messages) / kOps;
    costs.get_bytes = static_cast<double>(world.traffic().total_bytes) / kOps;
  }
  return costs;
}

/// The detector kernel's cost (the per-access check itself, no simulator
/// around it): production check_access (epoch fast path) vs the
/// full-vector-clock oracle.
struct DetectorCost {
  double fast_ns = 0;
  double oracle_ns = 0;
  double speedup() const { return fast_ns > 0 ? oracle_ns / fast_ns : 0; }
};

/// The fully-ordered steady state the epoch representation optimizes: the
/// stored state is the home NIC's post-event clock, and the accessor has
/// merged it (acked put / lock handoff) before ticking for each access.
struct OrderedCheckFixture {
  Rank home;
  Rank accessor;
  clocks::VectorClock stored;
  clocks::Epoch epoch;
  clocks::VectorClock issue;

  explicit OrderedCheckFixture(std::size_t nprocs)
      : home(0), accessor(static_cast<Rank>(nprocs - 1)), stored(nprocs) {
    for (std::size_t i = 0; i < nprocs; ++i) stored[i] = 2 * i + 3;
    stored.tick(home);
    epoch = clocks::Epoch::of_event(home, stored);
    issue = stored;
    issue.tick(accessor);
  }

  /// One per-access check: tick (models the workload and keeps the inputs
  /// loop-variant so the inlined fast path cannot be hoisted), then decide.
  core::Verdict check(bool oracle) {
    issue.tick(accessor);
    const core::StoredClocks with_epoch{stored, stored, home, home, epoch, epoch};
    return oracle ? core::check_access_oracle(core::DetectorMode::kDualClock,
                                              core::AccessKind::kWrite, accessor,
                                              issue, with_epoch)
                  : core::check_access(core::DetectorMode::kDualClock,
                                       core::AccessKind::kWrite, accessor, issue,
                                       with_epoch);
  }
};

/// Wall-clock ns per check_access call on the fully-ordered workload. The
/// oracle pays two O(n) clock walks per check; the epoch path two integer
/// compares. Kept out of line: inlined into the table printer, the timed
/// loop falls under that large function's inlining budget, and GCC leaves
/// the kernel's clock accessors as calls that no real caller pays.
[[gnu::noinline]] DetectorCost measure_detector_cost(std::size_t nprocs, std::uint64_t iters = 2'000'000) {
  OrderedCheckFixture fixture(nprocs);
  const auto run = [&](bool oracle) {
    std::uint64_t races = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
      races += fixture.check(oracle).race ? 1 : 0;
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    DSMR_CHECK_MSG(races == 0, "ordered workload must not race");
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
           static_cast<double>(iters);
  };

  DetectorCost cost;
  cost.oracle_ns = run(/*oracle=*/true);
  cost.fast_ns = run(/*oracle=*/false);
  return cost;
}

/// The detector-kernel table (and JSON entries) behind the >=5x fast-path
/// acceptance criterion that tools/bench_gate.py gates.
void print_detector_cost_summary() {
  util::Table table({"n procs", "oracle ns/check", "epoch ns/check", "speedup"});
  for (const std::size_t n : {4u, 16u, 64u, 256u}) {
    const DetectorCost cost = measure_detector_cost(n);
    table.add_row({util::Table::fmt_int(n), util::Table::fmt(cost.oracle_ns, 2),
                   util::Table::fmt(cost.fast_ns, 2),
                   util::Table::fmt(cost.speedup(), 1)});
    json_add("detector_check_ordered",
             {{"n", std::to_string(n)}, {"path", "epoch"}, {"mode", "dual-clock"}},
             cost.fast_ns);
    json_add("detector_check_ordered",
             {{"n", std::to_string(n)}, {"path", "oracle"}, {"mode", "dual-clock"}},
             cost.oracle_ns);
  }
  print_table(
      "=== Detector kernel: per-access check cost on fully-ordered workloads ===\n"
      "(epoch fast path vs full-vector-clock oracle; dual-clock writes)",
      table);
}

void print_summary() {
  {
    util::Table table({"detector", "transport", "put ns", "x base", "msgs/put",
                       "get ns", "x base", "msgs/get", "clock B/put"});
    const OpCosts base = measure(4, core::DetectorMode::kOff, core::Transport::kHomeSide);
    struct Config {
      core::DetectorMode mode;
      core::Transport transport;
    };
    const Config configs[] = {
        {core::DetectorMode::kOff, core::Transport::kHomeSide},
        {core::DetectorMode::kDualClock, core::Transport::kSeparate},
        {core::DetectorMode::kDualClock, core::Transport::kPiggyback},
        {core::DetectorMode::kDualClock, core::Transport::kHomeSide},
    };
    for (const auto& config : configs) {
      const OpCosts costs = measure(4, config.mode, config.transport);
      table.add_row({mode_name(config.mode), transport_name(config.transport),
                     util::Table::fmt(costs.put_virtual_ns, 0),
                     util::Table::fmt(costs.put_virtual_ns / base.put_virtual_ns, 2),
                     util::Table::fmt(costs.put_messages, 1),
                     util::Table::fmt(costs.get_virtual_ns, 0),
                     util::Table::fmt(costs.get_virtual_ns / base.get_virtual_ns, 2),
                     util::Table::fmt(costs.get_messages, 1),
                     util::Table::fmt(costs.put_bytes - base.put_bytes, 0)});
      json_add("put_protocol_virtual",
               {{"n", "4"},
                {"mode", mode_name(config.mode)},
                {"transport", transport_name(config.transport)}},
               costs.put_virtual_ns, costs.put_bytes);
      json_add("get_protocol_virtual",
               {{"n", "4"},
                {"mode", mode_name(config.mode)},
                {"transport", transport_name(config.transport)}},
               costs.get_virtual_ns, costs.get_bytes);
    }
    print_table(
        "=== CLAIM-V.A2: communication overhead of detection (n=4, virtual time) ===",
        table);
  }
  {
    // Scaling with the process count: clocks grow linearly with n (§IV.C),
    // so piggybacked bytes grow too; message counts stay flat.
    util::Table table({"n procs", "put ns (off)", "put ns (dual)", "overhead",
                       "clock B/put", "msgs/put"});
    for (const int n : {2, 4, 8, 16, 32}) {
      const OpCosts off = measure(n, core::DetectorMode::kOff, core::Transport::kHomeSide);
      const OpCosts dual =
          measure(n, core::DetectorMode::kDualClock, core::Transport::kHomeSide);
      table.add_row({util::Table::fmt_int(static_cast<std::uint64_t>(n)),
                     util::Table::fmt(off.put_virtual_ns, 0),
                     util::Table::fmt(dual.put_virtual_ns, 0),
                     util::Table::fmt(dual.put_virtual_ns / off.put_virtual_ns, 3),
                     util::Table::fmt(dual.put_bytes - off.put_bytes, 0),
                     util::Table::fmt(dual.put_messages, 1)});
      json_add("put_overhead_vs_nprocs",
               {{"n", std::to_string(n)}, {"mode", "dual-clock"}, {"transport", "home-side"}},
               dual.put_virtual_ns, dual.put_bytes - off.put_bytes);
    }
    print_table(
        "=== CLAIM-V.A2: overhead vs process count (home-side transport) ===\n"
        "(\"debugging happens at ~10 processes\": the overhead stays modest there)",
        table);
  }
  print_detector_cost_summary();
}

}  // namespace
}  // namespace dsmr::bench

int main(int argc, char** argv) {
  return dsmr::bench::run_bench(argc, argv, "overhead", dsmr::bench::print_summary);
}
