// Recording overhead (ROADMAP item 3): what does the always-on ordering
// recorder cost per operation?
//
// Three comparisons, the production story in numbers:
//
//  * wall-clock per-op on the real-threads backend — detector off,
//    off + recorder (the "always-on recording" production config), full
//    dual-clock live, and dual-clock + recorder. The record/off ratio is
//    the headline number and is gated (tools/bench_gate.py) against
//    bench/baseline.json: machine speed cancels in the ratio. Each
//    recorded config runs in alternating pairs with its unrecorded one and
//    reports the median of the per-pair ratios, so one slow run or a
//    machine-wide drift between configs does not move the gated number.
//  * virtual-time invariance on the simulator — the recorder hooks the
//    engine, not the wire, so recorded runs must cost EXACTLY the same
//    virtual ns/op as unrecorded ones (deterministic, exact-gated).
//  * log density — bytes per recorded event and per op for a fixed sim
//    schedule (deterministic: LEB128 sizes of a seeded run).
#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "record/recorder.hpp"
#include "runtime/thread_world.hpp"
#include "util/assert.hpp"

namespace dsmr::bench {
namespace {

using mem::GlobalAddress;
using runtime::Process;
using runtime::ThreadProcess;
using runtime::ThreadWorld;
using runtime::ThreadWorldConfig;
using runtime::World;

constexpr int kRanks = 4;
constexpr int kOpsPerRank = 50'000;  // × 2 ops (put + get) per iteration.
constexpr int kPairs = 9;            // unrecorded/recorded pairs per config.

/// One threaded run: every rank hammers its own area with put+get pairs
/// (disjoint areas — pure per-op engine + recorder cost, no contention
/// beyond detector-shard sharing). Returns wall ns per op from the first
/// body's start to the last body's end, so thread spawn and join are not
/// timed. When recording, stores the serialized log's bytes per op in
/// `*log_bytes_per_op`.
double run_thread(core::DetectorMode mode, bool record, double* log_bytes_per_op) {
  using Clock = std::chrono::steady_clock;
  const double ops = static_cast<double>(kRanks) * kOpsPerRank * 2;
  ThreadWorldConfig config;
  config.nprocs = kRanks;
  config.mode = mode;
  record::Recorder recorder(kRanks, record::Backend::kThread, mode,
                            config.lock_clock_handoff, config.acked_puts);
  if (record) config.recorder = &recorder;
  ThreadWorld world(config);
  std::vector<GlobalAddress> areas;
  for (int r = 0; r < kRanks; ++r) {
    std::string name = "a";
    name += std::to_string(r);
    areas.push_back(world.alloc(r, 8, name));
  }
  std::vector<Clock::time_point> starts(kRanks);
  std::vector<Clock::time_point> ends(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    world.spawn(r, [r, &areas, &starts, &ends](ThreadProcess& p) {
      const auto me = static_cast<std::size_t>(r);
      starts[me] = Clock::now();
      std::vector<std::byte> value(8);
      for (int i = 0; i < kOpsPerRank; ++i) {
        std::memcpy(value.data(), &i, sizeof(i));
        p.put(areas[me], value);
        p.get(areas[me], 8);
      }
      ends[me] = Clock::now();
    });
  }
  const auto report = world.run();
  DSMR_CHECK(report.completed);
  if (record) {
    recorder.finish(world.races().reports(), report.completed, report.stuck_ranks);
    *log_bytes_per_op = static_cast<double>(recorder.log().serialize().size()) / ops;
  }
  const auto wall = *std::max_element(ends.begin(), ends.end()) -
                    *std::min_element(starts.begin(), starts.end());
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(wall).count()) /
         ops;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

struct PairedCost {
  double plain_ns_per_op = 0;     ///< median unrecorded run.
  double recorded_ns_per_op = 0;  ///< plain × the median per-pair ratio.
  double log_bytes_per_op = 0;
};

/// kPairs unrecorded/recorded pairs of `mode`, the order swapped every
/// other pair. The recorded cost is reported as the plain median times the
/// median of the per-pair recorded/plain ratios, so the gate's quotient of
/// the two is exactly that median.
PairedCost measure_pairs(core::DetectorMode mode) {
  std::vector<double> plain;
  std::vector<double> ratios;
  PairedCost cost;
  run_thread(mode, false, nullptr);  // warm-up, untimed.
  for (int pair = 0; pair < kPairs; ++pair) {
    double unrecorded = 0;
    double recorded = 0;
    if (pair % 2 == 0) {
      unrecorded = run_thread(mode, false, nullptr);
      recorded = run_thread(mode, true, &cost.log_bytes_per_op);
    } else {
      recorded = run_thread(mode, true, &cost.log_bytes_per_op);
      unrecorded = run_thread(mode, false, nullptr);
    }
    plain.push_back(unrecorded);
    ratios.push_back(recorded / unrecorded);
  }
  cost.plain_ns_per_op = median(plain);
  cost.recorded_ns_per_op = cost.plain_ns_per_op * median(ratios);
  return cost;
}

/// Virtual put cost on the sim backend with a recorder attached — must be
/// bit-identical to the unrecorded cost (the recorder is engine-side).
double measure_sim_virtual(bool record) {
  constexpr int kOps = 64;
  auto config = world_config(kRanks, core::DetectorMode::kOff,
                             core::Transport::kHomeSide);
  config.latency.jitter_ns = 0;
  World world(config);
  if (record) world.record();
  const GlobalAddress x = world.alloc(kRanks - 1, 8, "x");
  sim::Time busy = 0;
  world.spawn(0, [x, &busy](Process& p) -> sim::Task {
    const sim::Time start = p.now();
    for (int i = 0; i < kOps; ++i) co_await p.put_value(x, std::uint64_t{1});
    busy = p.now() - start;
  });
  DSMR_CHECK(world.run().completed);
  return static_cast<double>(busy) / kOps;
}

/// Log density on a fixed seeded sim schedule: bytes per event and per op.
struct LogDensity {
  double bytes_per_event = 0;
  double bytes_per_op = 0;
  std::uint64_t events = 0;
};

LogDensity measure_log_density() {
  constexpr int kOps = 64;
  auto config = world_config(kRanks, core::DetectorMode::kDualClock,
                             core::Transport::kHomeSide);
  World world(config);
  world.record();
  const GlobalAddress x = world.alloc(kRanks - 1, 8, "x");
  world.spawn(0, [x](Process& p) -> sim::Task {
    for (int i = 0; i < kOps; ++i) {
      co_await p.put_value(x, std::uint64_t{1});
      co_await p.get(x, 8);
    }
  });
  DSMR_CHECK(world.run().completed);
  const auto bytes = world.log().serialize();
  LogDensity density;
  density.events = world.log().events.size();
  density.bytes_per_event = static_cast<double>(bytes.size()) /
                            static_cast<double>(density.events);
  density.bytes_per_op = static_cast<double>(bytes.size()) / (2.0 * kOps);
  return density;
}

void print_summary() {
  struct Config {
    const char* label;
    double ns_per_op;
    double log_bytes_per_op;
  };
  const PairedCost off = measure_pairs(core::DetectorMode::kOff);
  const PairedCost dual = measure_pairs(core::DetectorMode::kDualClock);
  const Config configs[] = {
      {"off", off.plain_ns_per_op, 0},
      {"off+record", off.recorded_ns_per_op, off.log_bytes_per_op},
      {"dual-clock", dual.plain_ns_per_op, 0},
      {"dual-clock+record", dual.recorded_ns_per_op, dual.log_bytes_per_op},
  };
  util::Table table({"config", "wall ns/op", "x off", "log B/op"});
  for (const Config& config : configs) {
    table.add_row({config.label, util::Table::fmt(config.ns_per_op, 0),
                   util::Table::fmt(config.ns_per_op / off.plain_ns_per_op, 2),
                   util::Table::fmt(config.log_bytes_per_op, 1)});
    json_add("record_op_wall", {{"backend", "thread"}, {"config", config.label}},
             config.ns_per_op);
  }
  std::string title =
      "=== recording overhead: threaded backend, wall clock per op (n=4) ===\n"
      "(record/off is the gated ratio — the always-on production cost; each\n"
      "recorded row is its plain row times the median recorded/plain ratio\n"
      "over ";
  title += std::to_string(kPairs);
  title += " alternating pairs)";
  print_table(title, table);

  {
    const double off = measure_sim_virtual(false);
    const double recorded = measure_sim_virtual(true);
    util::Table virt({"config", "put virtual ns", "delta"});
    virt.add_row({"off", util::Table::fmt(off, 0), "-"});
    virt.add_row({"off+record", util::Table::fmt(recorded, 0),
                  util::Table::fmt(recorded - off, 0)});
    print_table(
        "=== recording is virtually free: sim virtual put cost (exact-gated) ===",
        virt);
    json_add("put_protocol_record_virtual",
             {{"n", std::to_string(kRanks)}, {"mode", "off"}, {"record", "on"}},
             recorded);
  }
  {
    const LogDensity density = measure_log_density();
    util::Table log_table({"events", "bytes/event", "bytes/op"});
    log_table.add_row({util::Table::fmt_int(density.events),
                       util::Table::fmt(density.bytes_per_event, 2),
                       util::Table::fmt(density.bytes_per_op, 2)});
    print_table("=== log density: fixed dual-clock sim schedule (exact-gated) ===",
                log_table);
    json_add("record_log_density_virtual",
             {{"n", std::to_string(kRanks)}, {"backend", "sim"}, {"seed", "1"}},
             density.bytes_per_event, density.bytes_per_op);
  }
}

}  // namespace
}  // namespace dsmr::bench

int main(int argc, char** argv) {
  return dsmr::bench::run_bench(argc, argv, "record_overhead", dsmr::bench::print_summary);
}
