// Tests for the fault-injection plane (net/fault.hpp) and the reliable
// transport that masks it (net/reliable.hpp inside SimFabric): plan grammar
// round-trips and presets, retry backoff, fault-stream separation from the
// latency/perturbation streams, drop/dup/corrupt/partition/crash behavior
// on the wire, retransmission accounting in TrafficCounters, and the
// World-level quiescence watchdog diagnostic.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "fuzz/generate.hpp"
#include "fuzz/program.hpp"
#include "net/message.hpp"
#include "net/sim_fabric.hpp"
#include "runtime/process.hpp"
#include "runtime/world.hpp"
#include "sim/engine.hpp"

namespace dsmr::net {
namespace {

Message make_msg(MsgType type, Rank src, Rank dst, std::size_t payload = 0,
                 std::uint64_t op_id = 0) {
  Message m;
  m.type = type;
  m.src = src;
  m.dst = dst;
  m.op_id = op_id;
  m.data.assign(payload, std::byte{0});
  return m;
}

FaultPlan parse_or_die(const std::string& text) {
  std::string error;
  const auto plan = parse_fault_plan(text, &error);
  EXPECT_TRUE(plan.has_value()) << text << ": " << error;
  return plan.value_or(FaultPlan{});
}

// ---------------------------------------------------------------------------
// Plan grammar
// ---------------------------------------------------------------------------

TEST(FaultPlan, DefaultPlanIsOffAndRoundTrips) {
  const FaultPlan off;
  EXPECT_EQ(off.to_string(), "off");
  EXPECT_FALSE(off.wire_enabled());
  EXPECT_TRUE(off.recoverable());
  EXPECT_EQ(parse_or_die("off"), off);
  EXPECT_EQ(parse_or_die("none"), off);
  EXPECT_EQ(parse_or_die(""), off);
}

TEST(FaultPlan, CanonicalTextRoundTripsByteIdentically) {
  // Every preset plus a plan exercising the full grammar: parse(to_string)
  // must reproduce the plan, and re-serializing must be byte-identical —
  // .repro files and CI flags depend on it.
  std::vector<FaultPlan> plans;
  for (const auto& [name, plan] : fault_presets()) plans.push_back(plan);
  FaultPlan full;
  full.drop_ppm = 10'000;
  full.dup_ppm = 5'000;
  full.corrupt_ppm = 1'000;
  full.delay_ppm = 2'000;
  full.delay_min_ns = 100;
  full.delay_max_ns = 9'999;
  full.partitions.push_back(PartitionWindow{0, 3, 1'000, 2'000});
  full.partitions.push_back(PartitionWindow{1, 2, 5'000, 0});  // permanent.
  full.crashes.push_back(CrashWindow{2, 7'000, 8'000});
  full.retry = RetryPolicy{30'000, 500'000, 6};
  full.salt = 17;
  full.reliable = true;
  full.drop_live_reports = true;
  plans.push_back(full);
  for (const auto& plan : plans) {
    const auto text = plan.to_string();
    const auto parsed = parse_or_die(text);
    EXPECT_EQ(parsed, plan) << text;
    EXPECT_EQ(parsed.to_string(), text);
  }
}

TEST(FaultPlan, PresetNamesParse) {
  for (const auto& [name, plan] : fault_presets()) {
    EXPECT_EQ(parse_or_die(name), plan) << name;
    // Every preset except the permanent-crash one is recoverable.
    EXPECT_EQ(plan.recoverable(), name != "blackhole") << name;
  }
}

TEST(FaultPlan, MalformedTextIsRejectedWithAnError) {
  for (const char* bad :
       {"bogus", "drop=", "drop=2000000", "drop=x", "delay=10", "delay=10:5",
        "delay=10:9-3", "part=0-1", "part=0-1@5-5", "crash=1", "crash=1@9-9",
        "rto=0", "attempts=0", "attempts=5000", "drop=1,,dup=1"}) {
    std::string error;
    EXPECT_FALSE(parse_fault_plan(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(FaultPlan, ListParsingSplitsOnSemicolons) {
  std::string error;
  const auto plans = parse_fault_plan_list("loss1;off;[drop=10000,salt=3];dupdelay", &error);
  ASSERT_TRUE(plans.has_value()) << error;
  ASSERT_EQ(plans->size(), 3u);  // "off" elements are dropped.
  EXPECT_EQ((*plans)[0], parse_or_die("loss1"));
  EXPECT_EQ((*plans)[1].drop_ppm, 10'000u);
  EXPECT_EQ((*plans)[1].salt, 3u);
  EXPECT_EQ((*plans)[2], parse_or_die("dupdelay"));
  EXPECT_TRUE(parse_fault_plan_list("", &error)->empty());
  EXPECT_FALSE(parse_fault_plan_list("loss1;what", &error).has_value());
}

TEST(FaultPlan, RecoverabilityBoundaries) {
  FaultPlan certain_loss;
  certain_loss.drop_ppm = 1'000'000;
  EXPECT_FALSE(certain_loss.recoverable());
  FaultPlan heavy_loss;
  heavy_loss.drop_ppm = 999'999;
  EXPECT_TRUE(heavy_loss.recoverable());
  FaultPlan split;
  split.partitions.push_back(PartitionWindow{0, 1, 100, 0});
  EXPECT_FALSE(split.recoverable());
  split.partitions.back().until = 200;
  EXPECT_TRUE(split.recoverable());
}

TEST(RetryPolicy, BackoffDoublesAndCaps) {
  const RetryPolicy policy{60'000, 1'000'000, 12};
  EXPECT_EQ(policy.backoff(1), 60'000u);
  EXPECT_EQ(policy.backoff(2), 120'000u);
  EXPECT_EQ(policy.backoff(3), 240'000u);
  EXPECT_EQ(policy.backoff(5), 960'000u);
  EXPECT_EQ(policy.backoff(6), 1'000'000u);  // capped.
  EXPECT_EQ(policy.backoff(12), 1'000'000u);
}

// ---------------------------------------------------------------------------
// Fabric-level behavior
// ---------------------------------------------------------------------------

/// Runs `count` 32-byte puts 0→1 under `plan`, returning the (time, op_id)
/// delivery trace. The workhorse for bit-identity comparisons.
std::vector<std::pair<sim::Time, std::uint64_t>> delivery_trace(
    const FaultPlan& plan, const sim::PerturbConfig& perturb = {},
    std::uint64_t count = 32) {
  sim::Engine engine;
  SimFabric fabric(engine, 2, LatencyModel{}, 42, perturb, plan);
  std::vector<std::pair<sim::Time, std::uint64_t>> trace;
  fabric.attach(1, [&](const Message& m) { trace.emplace_back(engine.now(), m.op_id); });
  engine.schedule_at(0, [&] {
    for (std::uint64_t i = 0; i < count; ++i) {
      fabric.send(make_msg(MsgType::kPutData, 0, 1, 32, i));
    }
  });
  engine.run();
  return trace;
}

TEST(FaultFabric, ZeroRatePlanIsBitIdenticalToThePerfectWire) {
  // Satellite invariant: forcing the reliable transport with every fault
  // rate at zero reproduces the perfect wire's logical schedule exactly —
  // same delivery times, same order — because the fault stream is separate
  // from the latency jitter stream and the first attempt keeps the
  // FIFO-clamped cost. Checked with and without perturbation.
  const auto baseline = delivery_trace(FaultPlan{});
  EXPECT_EQ(delivery_trace(parse_or_die("reliable")), baseline);

  const sim::PerturbConfig perturb{0, 4'000, 7};
  const auto perturbed = delivery_trace(FaultPlan{}, perturb);
  EXPECT_EQ(delivery_trace(parse_or_die("reliable"), perturb), perturbed);
  EXPECT_NE(perturbed, baseline);  // the perturbation itself is live.
}

TEST(FaultFabric, SaltSelectsTheFaultStreamWithoutMovingTheSchedule) {
  // Different salts re-roll the fault fates, never the logical schedule: a
  // zero-rate plan is schedule-identical under any salt.
  FaultPlan salted = parse_or_die("reliable");
  salted.salt = 99;
  EXPECT_EQ(delivery_trace(salted), delivery_trace(parse_or_die("reliable")));
}

TEST(FaultFabric, LossIsMaskedByRetransmission) {
  FaultPlan plan = parse_or_die("drop=300000");  // 30% loss: retries certain.
  const auto trace = delivery_trace(plan, {}, 64);
  ASSERT_EQ(trace.size(), 64u);
  for (std::uint64_t i = 0; i < 64; ++i) EXPECT_EQ(trace[i].second, i);  // FIFO held.
}

TEST(FaultFabric, DuplicatesAreSuppressed) {
  sim::Engine engine;
  SimFabric fabric(engine, 2, LatencyModel{}, 5, {}, parse_or_die("dup=1000000"));
  std::vector<std::uint64_t> received;
  fabric.attach(1, [&](const Message& m) { received.push_back(m.op_id); });
  engine.schedule_at(0, [&] {
    for (std::uint64_t i = 0; i < 16; ++i) {
      fabric.send(make_msg(MsgType::kPutData, 0, 1, 8, i));
    }
  });
  engine.run();
  ASSERT_EQ(received.size(), 16u);  // exactly once each, in order...
  for (std::uint64_t i = 0; i < 16; ++i) EXPECT_EQ(received[i], i);
  // ...and every wire echo was caught by the receiver window.
  EXPECT_GE(fabric.counters().duplicates_suppressed, 16u);
  EXPECT_EQ(fabric.counters().total_messages, 16u);  // accounting unpolluted.
}

TEST(FaultFabric, PartitionWindowRetriesAreAccountedDeterministically) {
  // Satellite (d) core case: with jitter and rates at zero the whole run is
  // draw-free, so the retry arithmetic is exact. Partition 0-1 over
  // [0, 100µs); messages sent at t=0 arrive ~1.5µs (lost), retry once at
  // 60µs (arrive ~61.5µs, lost), again at 60+120=180µs (arrive ~181.5µs,
  // delivered): exactly 2 retransmissions per message, and none of the
  // protocol-level counters move.
  sim::Engine engine;
  LatencyModel model;
  model.jitter_ns = 0;
  FaultPlan plan = parse_or_die("part=0-1@0-100000");
  SimFabric fabric(engine, 2, model, 9, {}, plan);
  std::vector<sim::Time> delivered;
  fabric.attach(1, [&](const Message&) { delivered.push_back(engine.now()); });
  constexpr std::uint64_t kCount = 4;
  engine.schedule_at(0, [&] {
    for (std::uint64_t i = 0; i < kCount; ++i) {
      fabric.send(make_msg(MsgType::kPutData, 0, 1, 100, i));
    }
  });
  engine.run();
  ASSERT_EQ(delivered.size(), kCount);
  for (const auto t : delivered) EXPECT_GT(t, 100'000u);  // after the window.

  const auto& counters = fabric.counters();
  // Transport-plane accounting: visible, and separated from the data path.
  EXPECT_EQ(counters.retry_messages, 2 * kCount);
  EXPECT_GT(counters.retry_bytes, 0u);
  EXPECT_EQ(counters.faults_injected, 2 * kCount);  // the swallowed arrivals.
  EXPECT_EQ(counters.acks_sent, kCount);
  EXPECT_EQ(counters.undeliverable_messages, 0u);
  // Protocol-plane accounting: retries must not inflate the paper's
  // Fig. 2 counts or the clock-overhead ledger.
  EXPECT_EQ(counters.total_messages, kCount);
  EXPECT_EQ(counters.data_path_messages, kCount);
  EXPECT_EQ(counters.payload_bytes, kCount * 100u);
  EXPECT_EQ(counters.clock_bytes, 0u);
  EXPECT_TRUE(fabric.unacked().empty());  // fully quiescent.
}

TEST(FaultFabric, CrashRestartOnlyAffectsLinksTouchingTheRank) {
  sim::Engine engine;
  LatencyModel model;
  model.jitter_ns = 0;
  SimFabric fabric(engine, 3, model, 11, {}, parse_or_die("crash=1@0-100000"));
  sim::Time to_crashed = 0;
  sim::Time to_healthy = 0;
  fabric.attach(1, [&](const Message&) { to_crashed = engine.now(); });
  fabric.attach(2, [&](const Message&) { to_healthy = engine.now(); });
  engine.schedule_at(0, [&] {
    fabric.send(make_msg(MsgType::kPutData, 0, 1, 8));
    fabric.send(make_msg(MsgType::kPutData, 0, 2, 8));
  });
  engine.run();
  EXPECT_GT(to_crashed, 100'000u);   // masked after the restart.
  EXPECT_GT(to_healthy, 0u);
  EXPECT_LT(to_healthy, 100'000u);   // the 0→2 link never noticed.
}

TEST(FaultFabric, PermanentCrashExhaustsRetriesIntoDeadLetters) {
  sim::Engine engine;
  LatencyModel model;
  model.jitter_ns = 0;
  FaultPlan plan = parse_or_die("crash=1@0-,attempts=4");
  ASSERT_FALSE(plan.recoverable());
  SimFabric fabric(engine, 2, model, 13, {}, plan);
  bool reached = false;
  fabric.attach(1, [&](const Message&) { reached = true; });
  engine.schedule_at(0, [&] { fabric.send(make_msg(MsgType::kPutData, 0, 1, 8, 77)); });
  engine.run();
  EXPECT_FALSE(reached);
  EXPECT_EQ(fabric.counters().undeliverable_messages, 1u);
  const auto unacked = fabric.unacked();
  ASSERT_EQ(unacked.size(), 1u);  // the watchdog's evidence.
  EXPECT_TRUE(unacked.front().gave_up);
  EXPECT_EQ(unacked.front().op_id, 77u);
  EXPECT_EQ(unacked.front().attempts, 4);
  EXPECT_NE(unacked.front().describe().find("GAVE-UP"), std::string::npos);
}

TEST(FaultFabric, CorruptionIsDiscardedAndRetransmitted) {
  // 100% corruption with capped attempts: the receiver discards every
  // arrival, the sender retries to exhaustion — corruption can never leak a
  // mangled payload into the protocol.
  sim::Engine engine;
  LatencyModel model;
  model.jitter_ns = 0;
  SimFabric fabric(engine, 2, model, 3, {}, parse_or_die("corrupt=1000000,attempts=3"));
  bool reached = false;
  fabric.attach(1, [&](const Message&) { reached = true; });
  engine.schedule_at(0, [&] { fabric.send(make_msg(MsgType::kPutData, 0, 1, 8)); });
  engine.run();
  EXPECT_FALSE(reached);
  EXPECT_EQ(fabric.counters().undeliverable_messages, 1u);
  EXPECT_GE(fabric.counters().faults_injected, 3u);  // every attempt discarded.
}

}  // namespace
}  // namespace dsmr::net

namespace dsmr::runtime {
namespace {

using mem::GlobalAddress;

WorldConfig fault_config(int nprocs, const std::string& plan_text) {
  WorldConfig config;
  config.nprocs = nprocs;
  config.seed = 21;
  config.fault = *net::parse_fault_plan(plan_text);
  return config;
}

/// (races, per-message timeline) — the protocol-visible outcome of a run, for
/// transparency comparisons. Deliberately excludes the engine's final time:
/// the reliable transport's retry timers drain as no-ops after the last
/// delivery, which moves the drain time without moving the schedule.
struct Outcome {
  std::uint64_t races = 0;
  /// Every protocol send: (type, src, op, send time, delivery time). An
  /// access's request is sent at its issue and applied at its delivery.
  std::vector<std::tuple<net::MsgType, Rank, std::uint64_t, sim::Time, sim::Time>> timeline;
  bool operator==(const Outcome&) const = default;
};

Outcome run_pair_workload(const std::string& plan_text) {
  World world(fault_config(3, plan_text));
  Outcome out;
  world.fabric().set_tap([&out](sim::Time sent, sim::Time due, const net::Message& m) {
    out.timeline.emplace_back(m.type, m.src, m.op_id, sent, due);
  });
  const GlobalAddress x = world.alloc(2, 8, "x");
  world.spawn(0, [x](Process& p) -> sim::Task {
    co_await p.put_value(x, std::uint64_t{1});
    p.signal(1, 7);
  });
  world.spawn(1, [x](Process& p) -> sim::Task {
    co_await p.wait_signal(7);
    co_await p.get(x, 8);
  });
  const auto report = world.run();
  EXPECT_TRUE(report.completed) << plan_text << "\n" << report.diagnostic;
  out.races = report.race_count;
  return out;
}

TEST(WorldFault, ZeroRatePlanPreservesTheWholeSchedule) {
  // World-level stream separation (satellite c): the reliable transport
  // with no faults is invisible — same event timeline, same end time.
  EXPECT_EQ(run_pair_workload("reliable"), run_pair_workload("off"));
}

TEST(WorldFault, RecoverableLossIsTransparentToVerdicts) {
  // Under 1% loss the verdict layer must not move: this workload is
  // cleanly synchronized, so no plan may conjure a race, and the run must
  // still quiesce. (Timing may differ — retransmissions take real time.)
  const auto faulted = run_pair_workload("loss1");
  EXPECT_EQ(faulted.races, run_pair_workload("off").races);
}

TEST(WorldFault, WatchdogDescribesAnApplicationDeadlock) {
  World world(fault_config(2, "off"));
  world.spawn(0, [](Process& p) -> sim::Task {
    co_await p.wait_signal(1);  // never sent.
  });
  const auto report = world.run();
  EXPECT_FALSE(report.completed);
  ASSERT_EQ(report.stuck_ranks.size(), 1u);
  EXPECT_NE(report.diagnostic.find("watchdog: non-quiescent termination"),
            std::string::npos);
  EXPECT_NE(report.diagnostic.find("rank 0"), std::string::npos);
  EXPECT_NE(report.diagnostic.find("waiting for signal tag 1"), std::string::npos);
}

TEST(WorldFault, UnrecoverablePlanEndsInTheWatchdogNotAHang) {
  // Clean-failure invariant: a permanent NIC crash strands the workload,
  // and the run terminates (retry cap) with the stuck rank and the oldest
  // unacked message named in the diagnostic.
  WorldConfig config = fault_config(2, "crash=1@0-,attempts=3");
  World world(config);
  const GlobalAddress x = world.alloc(1, 8, "x");
  world.spawn(0, [x](Process& p) -> sim::Task {
    co_await p.put_value(x, std::uint64_t{5});  // home is crashed: never acked.
  });
  const auto report = world.run();
  EXPECT_FALSE(report.completed);
  EXPECT_FALSE(report.hit_event_cap);  // terminated, not runaway.
  EXPECT_NE(report.diagnostic.find("watchdog:"), std::string::npos);
  EXPECT_NE(report.diagnostic.find("rank 0"), std::string::npos);
  EXPECT_NE(report.diagnostic.find("oldest unacked"), std::string::npos);
  EXPECT_NE(report.diagnostic.find("GAVE-UP"), std::string::npos);
}


// The live sim schedule is a contract across commits: the fuzz, conformance
// and fault-matrix sweeps assert verdicts of this exact schedule. This pins
// it end to end — every original send (times, type, endpoints, op, wire
// size), the engine's event count and drain time, the watchdog diagnostic
// (with its live-frame count), every race report and the traffic counters —
// over fuzzed programs × all three transports with the detector on × the
// perfect wire and three fault presets, one of them unrecoverable.
TEST(WorldFault, LiveScheduleOfFuzzedProgramsIsPinned) {
  std::ostringstream all;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    fuzz::GenConfig gen;
    gen.seed = seed;
    gen.plant_bug = seed % 2 == 0;
    gen.nprocs = 3 + static_cast<int>(seed % 2);
    gen.areas = gen.nprocs + 1;
    gen.phases = 2;
    gen.max_ops_per_rank = 4;
    const auto program = std::make_shared<const fuzz::Program>(fuzz::generate_program(gen));
    for (const core::Transport transport :
         {core::Transport::kSeparate, core::Transport::kPiggyback, core::Transport::kHomeSide}) {
      for (const char* plan : {"off", "loss1", "dupdelay", "blackhole"}) {
        WorldConfig config;
        config.nprocs = program->nprocs;
        config.seed = seed;
        config.transport = transport;
        config.fault = *net::parse_fault_plan(plan);
        World world(config);
        world.fabric().set_tap([&all](sim::Time sent, sim::Time due, const net::Message& m) {
          all << sent << ' ' << due << ' ' << net::to_string(m.type) << ' ' << m.src << ' '
              << m.dst << ' ' << m.op_id << ' ' << m.wire_size() << '\n';
        });
        fuzz::spawn_program(world, program);
        const RunReport report = world.run();
        all << report.engine_events << ' ' << report.end_time << ' ' << report.diagnostic
            << '\n';
        for (const auto& race : world.races().reports()) all << race.describe() << '\n';
        const net::TrafficCounters& t = world.traffic();
        for (const std::uint64_t n : t.messages_by_type) all << n << ' ';
        all << t.total_messages << ' ' << t.total_bytes << ' ' << t.data_path_messages << ' '
            << t.payload_bytes << ' ' << t.clock_bytes << ' ' << t.retry_messages << ' '
            << t.retry_bytes << ' ' << t.acks_sent << ' ' << t.duplicates_suppressed << ' '
            << t.faults_injected << ' ' << t.undeliverable_messages << '\n';
      }
    }
  }
  const std::string text = all.str();
  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a.
  for (const char c : text) hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  EXPECT_EQ(hash, 0x1ec1347be272d8e7ull) << text.size() << " schedule bytes";
}

}  // namespace
}  // namespace dsmr::runtime
