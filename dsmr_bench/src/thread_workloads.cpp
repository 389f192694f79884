// The three workloads on the real-threads backend (runtime::ThreadWorld).
// Every rank thread walks an op array generated from --seed before run(), so
// no RNG cost is timed.
#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "detect/sharded_detector.hpp"
#include "mem/public_segment.hpp"
#include "net/fabric.hpp"
#include "record/log.hpp"
#include "record/recorder.hpp"
#include "record/replay.hpp"
#include "runtime/thread_world.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace dsmr::bench {
namespace {

using mem::GlobalAddress;
using runtime::ThreadProcess;
using runtime::ThreadWorld;
using runtime::ThreadWorldConfig;

constexpr int kRanks = 4;
constexpr std::uint32_t kAreaBytes = 64;
constexpr std::uint32_t kPayload = 8;
constexpr std::uint64_t kRingTag = 0x52494e47ULL << 32;  // "RING"
/// thread_private's areas per rank (full, smoke); its stream feeds the
/// probes of the workloads that have none of their own.
constexpr std::uint32_t kPrivateAreas = 16384;
constexpr std::uint32_t kPrivateAreasSmoke = 1024;

/// Accesses the layer probes replay.
std::size_t probe_ops(const Run& run) { return run.smoke ? 4096 : 1u << 18; }

/// Where a rank body reports: its body time always; its spans and op
/// histograms when `tracer` is set.
struct BodyTrace {
  Tracer* tracer = nullptr;
  std::uint64_t run_span = 0;
  std::uint64_t req = 0;
  std::vector<std::int64_t>* body_ns = nullptr;  ///< per rank, written by that rank.
};

template <bool kTraced, typename F>
inline void timed(const BodyTrace& bt, int slot, OpKind kind, std::uint64_t index,
                  std::uint64_t parent, F&& op) {
  if constexpr (kTraced) {
    const std::int64_t start = now_ns();
    op();
    bt.tracer->op(slot, kind, start, now_ns(), index, parent, bt.req);
  } else {
    op();
  }
}

std::uint64_t read_u64(ThreadWorld& world, GlobalAddress addr) {
  std::uint64_t value = 0;
  std::memcpy(&value, world.segment(addr.rank).bytes(addr.offset, kPayload).data(),
              sizeof value);
  return value;
}

std::vector<std::byte> u64_bytes(std::uint64_t value) {
  std::vector<std::byte> bytes(kPayload);
  std::memcpy(bytes.data(), &value, sizeof value);
  return bytes;
}

/// A threaded rep's timing. Ranks run their op arrays independently and
/// the run ends with the slowest, so the run's wall mostly measures which
/// vCPU straggled. The rep's throughput is instead the sum of each rank's
/// own rate (its ops over its body time) — what a fixed-duration run of all
/// ranks would count — and its wall is the ops over that rate.
Rep rank_rate_rep(const std::vector<double>& rank_ops, const std::vector<std::int64_t>& body_ns,
                  double setup_s) {
  double ops = 0;
  double rate = 0;
  for (std::size_t r = 0; r < rank_ops.size(); ++r) {
    ops += rank_ops[r];
    rate += rank_ops[r] / seconds_between(0, body_ns[r]);
  }
  return Rep{ops / rate, setup_s, ops};
}

/// Counters read from a finished ThreadWorld, one set per rep.
struct Readout {
  double ops = 0;
  double checks = 0;
  double races = 0;
  double messages = 0;
  double bytes = 0;
  double clock_bytes = 0;
  double resident_clock_bytes = 0;
  double storage_bytes_per_area = 0;
  double spawn_join_ms = 0;
};

Readout read_world(ThreadWorld& world, const runtime::ThreadRunReport& report, double ops,
                   std::int64_t run_ns, const std::vector<std::int64_t>& body_ns) {
  Readout out;
  out.ops = ops;
  out.checks = static_cast<double>(report.checks);
  out.races = static_cast<double>(report.race_count);
  const net::TrafficCounters traffic = world.traffic();
  out.messages = static_cast<double>(traffic.total_messages);
  out.bytes = static_cast<double>(traffic.total_bytes);
  out.clock_bytes = static_cast<double>(traffic.clock_bytes);
  double storage = 0;
  double areas = 0;
  for (Rank r = 0; r < world.nprocs(); ++r) {
    const detect::ShardedDetector& det = world.detector(r);
    out.resident_clock_bytes += static_cast<double>(det.resident_clock_bytes());
    storage += static_cast<double>(det.storage_bytes());
    areas += static_cast<double>(det.area_count());
  }
  out.storage_bytes_per_area = areas > 0 ? storage / areas : 0;
  std::int64_t longest = 0;
  for (const std::int64_t ns : body_ns) longest = std::max(longest, ns);
  out.spawn_join_ms = static_cast<double>(run_ns - longest) / 1e6;
  return out;
}

/// Per-layer runtime, detect and net metrics from the traced reps' op
/// histograms and world readouts. An op kind the workload never ran sets
/// nothing (main fills it in from the metric's home workload).
void set_thread_layer_metrics(Run& run, const std::vector<Readout>& readouts) {
  const Tracer& tracer = *run.tracer;
  const auto set_quantiles = [&](OpKind kind, const char* p50, const char* p99) {
    const Histogram hist = tracer.merged(kind);
    if (hist.count() == 0) return;
    run.set(p50, hist.quantile(0.5));
    if (p99 != nullptr) run.set(p99, hist.quantile(0.99));
  };
  set_quantiles(OpKind::kPut, "runtime.put_ns_p50", "runtime.put_ns_p99");
  set_quantiles(OpKind::kGet, "runtime.get_ns_p50", "runtime.get_ns_p99");
  set_quantiles(OpKind::kLock, "runtime.lock_ns_p50", "runtime.lock_ns_p99");
  set_quantiles(OpKind::kUnlock, "runtime.unlock_ns_p50", nullptr);
  set_quantiles(OpKind::kSignal, "runtime.signal_ns_p50", nullptr);
  set_quantiles(OpKind::kWait, "runtime.wait_ns_p50", "runtime.wait_ns_p99");

  const auto med = [&](double Readout::*field, bool per_op) {
    std::vector<double> values;
    for (const Readout& r : readouts) values.push_back(per_op ? r.*field / r.ops : r.*field);
    return median(std::move(values));
  };
  run.set("runtime.spawn_join_ms", med(&Readout::spawn_join_ms, false));
  run.set("runtime.checks_per_op", med(&Readout::checks, true));
  run.set("detect.resident_clock_bytes", med(&Readout::resident_clock_bytes, false));
  run.set("detect.storage_bytes_per_area", med(&Readout::storage_bytes_per_area, false));
  run.set("detect.races", med(&Readout::races, false));
  run.set("net.messages_per_op", med(&Readout::messages, true));
  run.set("net.bytes_per_op", med(&Readout::bytes, true));
  run.set("net.clock_bytes_per_op", med(&Readout::clock_bytes, true));
}

/// The part of a put's median no probe explains: put p50 minus the probe
/// costs one put contains (resolve, check+store, two message accountings).
void set_put_residual(Run& run) {
  const auto put = run.metrics.find("runtime.put_ns_p50");
  if (put == run.metrics.end()) return;
  run.set("runtime.put_residual_ns", put->second - run.metrics["mem.find_area_ns"] -
                                         run.metrics["detect.check_store_ns"] -
                                         2 * run.metrics["net.account_ns"]);
}

// ---------------------------------------------------------------------------
// Private put/get streams (thread_private, record_fold)
// ---------------------------------------------------------------------------

/// Each rank's op array: (area << 1) | is_put. Rank r's areas are homed on
/// rank r+1; area index `areas` names the one shared area (homed on rank
/// 0) that record_fold's ranks put to 1 time in `shared_one_in`.
struct PrivatePlan {
  std::uint32_t areas = 0;
  std::vector<std::vector<std::uint32_t>> ops;
  /// Per rank, per area: the value of its last put (0: never written).
  std::vector<std::vector<std::uint64_t>> last_value;
  std::uint64_t total_ops = 0;
};

std::uint64_t put_value(Rank rank, std::size_t index) {
  return (static_cast<std::uint64_t>(rank + 1) << 40) | (index + 1);
}

PrivatePlan make_private_plan(std::uint64_t seed, int ranks, std::uint32_t areas,
                              std::uint64_t ops_per_rank, std::uint32_t shared_one_in) {
  PrivatePlan plan;
  plan.areas = areas;
  plan.ops.resize(static_cast<std::size_t>(ranks));
  plan.last_value.resize(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    util::Rng rng(derive_seed(seed, 100 + static_cast<std::uint64_t>(r)));
    auto& ops = plan.ops[static_cast<std::size_t>(r)];
    auto& last = plan.last_value[static_cast<std::size_t>(r)];
    ops.reserve(ops_per_rank);
    last.assign(areas, 0);
    for (std::uint64_t i = 0; i < ops_per_rank; ++i) {
      if (shared_one_in > 0 && rng.below(shared_one_in) == 0) {
        ops.push_back((areas << 1) | 1u);
        continue;
      }
      const auto area = static_cast<std::uint32_t>(rng.below(areas));
      const bool is_put = rng.below(2) == 1;
      ops.push_back((area << 1) | (is_put ? 1u : 0u));
      if (is_put) last[area] = put_value(r, i);
    }
    plan.total_ops += ops.size();
  }
  return plan;
}

ProbeStream probe_stream_of(const PrivatePlan& plan, std::size_t limit) {
  ProbeStream stream;
  stream.areas = plan.areas;
  stream.area_bytes = kAreaBytes;
  for (const std::uint32_t op : plan.ops[0]) {
    if (stream.area.size() == limit) break;
    if ((op >> 1) >= plan.areas) continue;  // the shared area is not rank 1's
    stream.area.push_back(op >> 1);
    stream.is_put.push_back((op & 1) != 0);
  }
  return stream;
}

template <bool kTraced>
void private_body(ThreadProcess& p, const std::vector<std::uint32_t>& ops,
                  const std::vector<GlobalAddress>& addr, GlobalAddress shared,
                  const BodyTrace& bt) {
  const int slot = 1 + p.rank();
  ScopedSpan body(bt.tracer, slot, "runtime.rank_body", bt.run_span, bt.req);
  std::vector<std::byte> value(kPayload);
  const auto areas = static_cast<std::uint32_t>(addr.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::uint32_t op = ops[i];
    const GlobalAddress target = (op >> 1) < areas ? addr[op >> 1] : shared;
    if ((op & 1) != 0) {
      const std::uint64_t v = put_value(p.rank(), i);
      std::memcpy(value.data(), &v, sizeof v);
      timed<kTraced>(bt, slot, OpKind::kPut, i, body.id(), [&] { p.put(target, value); });
    } else {
      timed<kTraced>(bt, slot, OpKind::kGet, i, body.id(),
                     [&] { (void)p.get(target, kPayload); });
    }
  }
  (*bt.body_ns)[static_cast<std::size_t>(p.rank())] = body.elapsed_ns();
}

/// What one private-stream rep ran on and produced.
struct PrivateRepOptions {
  std::uint32_t areas = 0;
  std::uint64_t ops_per_rank = 0;
  std::uint32_t shared_one_in = 0;  ///< 0: no shared area.
  int ranks = kRanks;
  core::DetectorMode mode = core::DetectorMode::kDualClock;
  bool record = false;
  bool traced = false;
};

struct RecordTimes {
  double finish_ms = 0;
  double serialize_ms = 0;
  double parse_ms = 0;
  double fold_ms = 0;
  double events = 0;
  double bytes = 0;
};

struct PrivateRepResult {
  Rep rep;
  Readout readout;
  std::optional<RecordTimes> record;
};

/// Seals, serializes, parses and folds a recorded rep's log, checking the
/// round trip and that the dual-clock fold flags exactly the shared area.
RecordTimes fold_recording(Run& run, record::Recorder& recorder, ThreadWorld& world,
                           const runtime::ThreadRunReport& report, GlobalAddress shared,
                           Tracer* tracer, std::uint64_t parent, std::uint64_t req) {
  RecordTimes times;
  {
    ScopedSpan span(tracer, 0, "record.finish", parent, req);
    recorder.finish(world.races().reports(), report.completed, report.stuck_ranks);
    times.finish_ms = static_cast<double>(span.elapsed_ns()) / 1e6;
  }
  const record::Log& log = recorder.log();
  std::vector<std::byte> bytes;
  {
    ScopedSpan span(tracer, 0, "record.serialize", parent, req);
    bytes = log.serialize();
    times.serialize_ms = static_cast<double>(span.elapsed_ns()) / 1e6;
  }
  std::optional<record::Log> parsed;
  std::string error;
  {
    ScopedSpan span(tracer, 0, "record.parse", parent, req);
    parsed = record::Log::parse(bytes, &error);
    times.parse_ms = static_cast<double>(span.elapsed_ns()) / 1e6;
  }
  run.check(parsed.has_value() && *parsed == log,
            "record_fold: Log::parse(serialize(log)) != log " + error);
  record::ReplayResult fold;
  {
    ScopedSpan span(tracer, 0, "record.fold", parent, req);
    fold = record::replay_fold(log, core::DetectorMode::kDualClock);
    times.fold_ms = static_cast<double>(span.elapsed_ns()) / 1e6;
  }
  run.check(fold.ok(), "record_fold: replay_fold failed: " + fold.error);
  run.check(fold.events == log.events.size(),
            "record_fold: fold folded " + std::to_string(fold.events) + " of " +
                std::to_string(log.events.size()) + " events");
  const mem::Area* area = world.segment(shared.rank).find_area(shared.offset, kPayload);
  const std::uint64_t shared_flat = recorder.area_index(shared.rank, area->id);
  bool only_shared = !fold.signature.races.empty();
  for (const record::RaceCount& race : fold.signature.races) {
    only_shared = only_shared && race.area == shared_flat;
  }
  run.check(only_shared, "record_fold: the dual-clock fold must flag the shared area and "
                         "nothing else (" + fold.signature.to_string() + ")");
  times.events = static_cast<double>(log.events.size());
  times.bytes = static_cast<double>(bytes.size());
  return times;
}

PrivateRepResult private_rep(Run& run, const PrivateRepOptions& opt, std::uint64_t req) {
  Tracer* const tracer = opt.traced ? run.tracer : nullptr;
  ScopedSpan rep_span(tracer, 0, "bench.rep", 0, req);
  const std::int64_t setup_start = now_ns();

  std::optional<ScopedSpan> setup_span(std::in_place, tracer, 0, "runtime.setup", rep_span.id(),
                                       req);
  const PrivatePlan plan = make_private_plan(run.seed, opt.ranks, opt.areas, opt.ops_per_rank,
                                             opt.shared_one_in);
  std::unique_ptr<record::Recorder> recorder;
  ThreadWorldConfig config;
  config.nprocs = opt.ranks;
  config.mode = opt.mode;
  config.segment_bytes = (opt.areas + 1) * kAreaBytes;
  if (opt.record) {
    recorder = std::make_unique<record::Recorder>(opt.ranks, record::Backend::kThread, opt.mode,
                                                  config.lock_clock_handoff, config.acked_puts);
    config.recorder = recorder.get();
  }
  ThreadWorld world(config);
  std::vector<std::vector<GlobalAddress>> addr(static_cast<std::size_t>(opt.ranks));
  for (int r = 0; r < opt.ranks; ++r) {
    const Rank home = (r + 1) % opt.ranks;
    auto& mine = addr[static_cast<std::size_t>(r)];
    mine.reserve(opt.areas);
    for (std::uint32_t a = 0; a < opt.areas; ++a) {
      std::string name = numbered("p", static_cast<std::uint64_t>(r));
      name += '.';
      name += std::to_string(a);
      mine.push_back(world.alloc(home, kAreaBytes, std::move(name)));
    }
  }
  const GlobalAddress shared =
      opt.shared_one_in > 0 ? world.alloc(0, kAreaBytes, "shared") : GlobalAddress{};
  std::vector<std::int64_t> body_ns(static_cast<std::size_t>(opt.ranks), 0);
  const BodyTrace bt{tracer, tracer != nullptr ? tracer->new_id(0) : 0, req, &body_ns};
  for (int r = 0; r < opt.ranks; ++r) {
    world.spawn(r, [&plan, &addr, shared, bt, r](ThreadProcess& p) {
      const auto& ops = plan.ops[static_cast<std::size_t>(r)];
      const auto& mine = addr[static_cast<std::size_t>(r)];
      if (bt.tracer != nullptr) {
        private_body<true>(p, ops, mine, shared, bt);
      } else {
        private_body<false>(p, ops, mine, shared, bt);
      }
    });
  }
  setup_span.reset();
  const std::int64_t run_start = now_ns();
  const runtime::ThreadRunReport report = world.run();
  const std::int64_t run_end = now_ns();
  if (tracer != nullptr) {
    tracer->add(0, Span{"runtime.run", run_start, run_end, bt.run_span, rep_span.id(), req});
  }

  PrivateRepResult result;
  const auto ops = static_cast<double>(plan.total_ops);
  std::vector<double> rank_ops;
  for (const auto& rank : plan.ops) rank_ops.push_back(static_cast<double>(rank.size()));
  result.rep = rank_rate_rep(rank_ops, body_ns, seconds_between(setup_start, run_start));
  result.readout = read_world(world, report, ops, run_end - run_start, body_ns);
  run.check(report.completed, run.workload + ": every rank completes");
  run.check(result.readout.checks == ops, run.workload + ": one detector check per op");
  run.check(result.readout.messages == 2 * ops, run.workload + ": two messages per op");
  if (opt.shared_one_in == 0) {
    run.check(report.race_count == 0, run.workload + ": private areas never race");
    bool last_writer = true;
    for (int r = 0; r < opt.ranks; ++r) {
      const auto& last = plan.last_value[static_cast<std::size_t>(r)];
      for (std::uint32_t a = 0; a < opt.areas; ++a) {
        const GlobalAddress area = addr[static_cast<std::size_t>(r)][a];
        last_writer = last_writer && read_u64(world, area) == last[a];
      }
    }
    run.check(last_writer, run.workload + ": every area holds its last writer's value");
  }
  if (recorder != nullptr) {
    result.record =
        fold_recording(run, *recorder, world, report, shared, tracer, rep_span.id(), req);
  }
  if (tracer != nullptr) run.traced_ops += plan.total_ops;
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// thread_private
// ---------------------------------------------------------------------------

void thread_private(Run& run) {
  PrivateRepOptions opt;
  opt.areas = static_cast<std::uint32_t>(
      run.size("areas_per_rank", kPrivateAreas, kPrivateAreasSmoke));
  opt.ops_per_rank = run.size("ops_per_rank", 1u << 20, 20000);
  run.size("ranks", kRanks, kRanks);
  run.size("area_bytes", kAreaBytes, kAreaBytes);
  run.size("payload_bytes", kPayload, kPayload);
  std::uint64_t req = 0;

  if (!run.traced()) {
    // 0: dual-clock, 1: detector off. Same op arrays.
    const auto reps = alternate(run, 2, [&](int config, bool) {
      PrivateRepOptions o = opt;
      o.mode = config == 0 ? core::DetectorMode::kDualClock : core::DetectorMode::kOff;
      return private_rep(run, o, req++).rep;
    });
    run.set("throughput", median_rate(reps[0]));
    run.set("slowdown", paired_ratio(reps[0], reps[1]));
    run.set("setup_s", median_setup(reps[0]));
    return;
  }

  // 0: dual-clock traced, 1: dual-clock untraced, 2: one rank untraced.
  std::vector<Readout> readouts;
  const auto reps = alternate(run, 3, [&](int config, bool timed) {
    PrivateRepOptions o = opt;
    o.traced = config == 0 && timed;
    if (config == 2) o.ranks = 1;
    PrivateRepResult result = private_rep(run, o, req++);
    if (o.traced) readouts.push_back(result.readout);
    return result.rep;
  });
  set_thread_layer_metrics(run, readouts);
  run.set("trace.overhead_frac", paired_ratio(reps[0], reps[1]) - 1.0);
  run.set("runtime.scale_eff", median_rate(reps[1]) / kRanks / median_rate(reps[2]));
  run_probes(run, private_probe_stream(run));
  set_put_residual(run);
}

// ---------------------------------------------------------------------------
// record_fold
// ---------------------------------------------------------------------------

void record_fold(Run& run) {
  PrivateRepOptions opt;
  opt.areas = static_cast<std::uint32_t>(run.size("areas_per_rank", 4096, 256));
  opt.ops_per_rank = run.size("ops_per_rank", 1u << 17, 20000);
  opt.shared_one_in = static_cast<std::uint32_t>(run.size("shared_put_one_in", 4096, 256));
  opt.mode = core::DetectorMode::kOff;
  run.size("ranks", kRanks, kRanks);
  run.size("area_bytes", kAreaBytes, kAreaBytes);
  std::uint64_t req = 0;

  // 0: recorded (then sealed, serialized, parsed, folded), 1: unrecorded.
  // In the traced pass, 1 is recorded too, untraced: the overhead baseline.
  std::vector<Readout> readouts;
  std::vector<RecordTimes> record_times;
  const auto reps = alternate(run, 2, [&](int config, bool timed) {
    PrivateRepOptions o = opt;
    o.record = config == 0 || run.traced();
    o.traced = run.traced() && config == 0 && timed;
    PrivateRepResult result = private_rep(run, o, req++);
    if (o.traced) {
      readouts.push_back(result.readout);
      record_times.push_back(*result.record);
    }
    return result.rep;
  });
  if (!run.traced()) {
    run.set("throughput", median_rate(reps[0]));
    run.set("slowdown", paired_ratio(reps[0], reps[1]));
    run.set("setup_s", median_setup(reps[0]));
    return;
  }
  set_thread_layer_metrics(run, readouts);
  run.set("trace.overhead_frac", paired_ratio(reps[0], reps[1]) - 1.0);
  const auto med = [&](double RecordTimes::*field) {
    std::vector<double> values;
    for (const RecordTimes& t : record_times) values.push_back(t.*field);
    return median(std::move(values));
  };
  run.set("record.finish_ms", med(&RecordTimes::finish_ms));
  run.set("record.serialize_ms", med(&RecordTimes::serialize_ms));
  run.set("record.parse_ms", med(&RecordTimes::parse_ms));
  run.set("record.fold_ms", med(&RecordTimes::fold_ms));
  const RecordTimes& last = record_times.back();
  run.set("record.bytes_per_event", last.bytes / last.events);
  run.set("record.events_per_op", last.events / readouts.back().ops);
  run.set("record.fold_events_per_s", last.events / (med(&RecordTimes::fold_ms) / 1e3));
  run_probes(run, probe_stream_of(make_private_plan(run.seed, 1, opt.areas, opt.ops_per_rank,
                                                    opt.shared_one_in),
                                  probe_ops(run)));
  set_put_residual(run);
}

// ---------------------------------------------------------------------------
// thread_contended
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kContendedAreas = 8;  // 0-3 counters, 4-6 read-shared, 7 racy

enum ContendedOp : std::uint32_t { kGetShared = 0, kLockedInc = 1, kRacyPut = 2, kRingStep = 3 };

/// Each rank's op array: (argument << 2) | ContendedOp, where the argument
/// is an area, or the ring step's index.
struct ContendedPlan {
  std::vector<std::vector<std::uint32_t>> ops;
  std::uint64_t locked_incs = 0;
  std::uint64_t user_ops = 0;  ///< lock, unlock, signal and wait count as ops.
  std::vector<double> rank_ops;  ///< user ops per rank.
};

ContendedPlan make_contended_plan(std::uint64_t seed, std::uint64_t ops_per_rank,
                                  std::uint64_t ring_every) {
  ContendedPlan plan;
  plan.ops.resize(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    util::Rng rng(derive_seed(seed, 200 + static_cast<std::uint64_t>(r)));
    auto& ops = plan.ops[static_cast<std::size_t>(r)];
    ops.reserve(ops_per_rank);
    std::uint64_t user_ops = 0;
    std::uint32_t step = 0;
    for (std::uint64_t i = 0; i < ops_per_rank; ++i) {
      if ((i + 1) % ring_every == 0) {
        ops.push_back((step++ << 2) | kRingStep);
        user_ops += 2;
        continue;
      }
      const std::uint64_t pick = rng.below(1000);
      if (pick < 60) {
        ops.push_back((static_cast<std::uint32_t>(rng.below(4)) << 2) | kLockedInc);
        ++plan.locked_incs;
        user_ops += 4;
      } else if (pick < 61) {
        ops.push_back((7u << 2) | kRacyPut);
        user_ops += 1;
      } else {
        ops.push_back((static_cast<std::uint32_t>(4 + rng.below(3)) << 2) | kGetShared);
        user_ops += 1;
      }
    }
    plan.rank_ops.push_back(static_cast<double>(user_ops));
    plan.user_ops += user_ops;
  }
  return plan;
}

template <bool kTraced>
void contended_body(ThreadProcess& p, const std::vector<std::uint32_t>& ops,
                    const std::vector<GlobalAddress>& addr, const BodyTrace& bt) {
  const int slot = 1 + p.rank();
  ScopedSpan body(bt.tracer, slot, "runtime.rank_body", bt.run_span, bt.req);
  const Rank next = (p.rank() + 1) % p.nprocs();
  const std::vector<std::byte> racy = u64_bytes(put_value(p.rank(), 0));
  std::uint64_t index = 0;
  const auto op = [&](OpKind kind, auto&& call) {
    timed<kTraced>(bt, slot, kind, index++, body.id(), call);
  };
  for (const std::uint32_t encoded : ops) {
    const std::uint32_t arg = encoded >> 2;
    switch (static_cast<ContendedOp>(encoded & 3)) {
      case kGetShared:
        op(OpKind::kGet, [&] { (void)p.get(addr[arg], kPayload); });
        break;
      case kLockedInc: {
        std::vector<std::byte> value;
        op(OpKind::kLock, [&] { p.lock(addr[arg]); });
        op(OpKind::kGet, [&] { value = p.get(addr[arg], kPayload); });
        std::uint64_t count = 0;
        std::memcpy(&count, value.data(), sizeof count);
        const std::vector<std::byte> incremented = u64_bytes(count + 1);
        op(OpKind::kPut, [&] { p.put(addr[arg], incremented); });
        op(OpKind::kUnlock, [&] { p.unlock(addr[arg]); });
        break;
      }
      case kRacyPut:
        op(OpKind::kPut, [&] { p.put(addr[arg], racy); });
        break;
      case kRingStep:
        op(OpKind::kSignal, [&] { p.signal(next, kRingTag | arg); });
        op(OpKind::kWait, [&] { (void)p.wait_signal(kRingTag | arg); });
        break;
    }
  }
  (*bt.body_ns)[static_cast<std::size_t>(p.rank())] = body.elapsed_ns();
}

struct ContendedRepResult {
  Rep rep;
  Readout readout;
};

ContendedRepResult contended_rep(Run& run, std::uint64_t ops_per_rank, std::uint64_t ring_every,
                                 core::DetectorMode mode, bool traced, std::uint64_t req) {
  Tracer* const tracer = traced ? run.tracer : nullptr;
  ScopedSpan rep_span(tracer, 0, "bench.rep", 0, req);
  const std::int64_t setup_start = now_ns();
  std::optional<ScopedSpan> setup_span(std::in_place, tracer, 0, "runtime.setup", rep_span.id(),
                                       req);
  const ContendedPlan plan = make_contended_plan(run.seed, ops_per_rank, ring_every);
  ThreadWorldConfig config;
  config.nprocs = kRanks;
  config.mode = mode;
  ThreadWorld world(config);
  std::vector<GlobalAddress> addr;
  for (std::uint32_t a = 0; a < kContendedAreas; ++a) {
    addr.push_back(world.alloc(0, kAreaBytes, numbered("c", a)));
  }
  std::vector<std::int64_t> body_ns(kRanks, 0);
  BodyTrace bt{tracer, tracer != nullptr ? tracer->new_id(0) : 0, req, &body_ns};
  for (int r = 0; r < kRanks; ++r) {
    world.spawn(r, [&plan, &addr, bt, r](ThreadProcess& p) {
      const auto& ops = plan.ops[static_cast<std::size_t>(r)];
      if (bt.tracer != nullptr) {
        contended_body<true>(p, ops, addr, bt);
      } else {
        contended_body<false>(p, ops, addr, bt);
      }
    });
  }
  setup_span.reset();
  const std::int64_t run_start = now_ns();
  const runtime::ThreadRunReport report = world.run();
  const std::int64_t run_end = now_ns();
  if (tracer != nullptr) {
    tracer->add(0, Span{"runtime.run", run_start, run_end, bt.run_span, rep_span.id(), req});
    run.traced_ops += plan.user_ops;
  }

  ContendedRepResult result;
  const auto ops = static_cast<double>(plan.user_ops);
  result.rep = rank_rate_rep(plan.rank_ops, body_ns, seconds_between(setup_start, run_start));
  result.readout = read_world(world, report, ops, run_end - run_start, body_ns);
  run.check(report.completed, "thread_contended: no stuck rank");
  std::uint64_t counted = 0;
  for (std::uint32_t a = 0; a < 4; ++a) counted += read_u64(world, addr[a]);
  run.check(counted == plan.locked_incs,
            "thread_contended: counters hold " + std::to_string(counted) + " of " +
                std::to_string(plan.locked_incs) + " locked increments");
  bool clean = true;
  for (const core::RaceReport& race : world.races().reports()) clean = clean && race.area == 7;
  run.check(clean, "thread_contended: a race flagged outside the racy area 7");
  return result;
}

}  // namespace

void thread_contended(Run& run) {
  const std::uint64_t ops_per_rank = run.size("ops_per_rank", 1u << 19, 20000);
  const std::uint64_t ring_every = run.size("ring_step_every", 4096, 4096);
  run.size("ranks", kRanks, kRanks);
  run.size("areas", kContendedAreas, kContendedAreas);
  std::uint64_t req = 0;

  if (!run.traced()) {
    const auto reps = alternate(run, 2, [&](int config, bool) {
      const auto mode = config == 0 ? core::DetectorMode::kDualClock : core::DetectorMode::kOff;
      return contended_rep(run, ops_per_rank, ring_every, mode, false, req++).rep;
    });
    run.set("throughput", median_rate(reps[0]));
    run.set("slowdown", paired_ratio(reps[0], reps[1]));
    run.set("setup_s", median_setup(reps[0]));
    return;
  }

  std::vector<Readout> readouts;
  const auto reps = alternate(run, 2, [&](int config, bool timed) {
    const bool traced = config == 0 && timed;
    ContendedRepResult result =
        contended_rep(run, ops_per_rank, ring_every, core::DetectorMode::kDualClock, traced, req++);
    if (traced) readouts.push_back(result.readout);
    return result.rep;
  });
  set_thread_layer_metrics(run, readouts);
  run.set("trace.overhead_frac", paired_ratio(reps[0], reps[1]) - 1.0);

  // Rank 0's data ops on the eight areas, as the probes replay them.
  const ContendedPlan plan = make_contended_plan(run.seed, ops_per_rank, ring_every);
  ProbeStream stream;
  stream.areas = kContendedAreas;
  stream.area_bytes = kAreaBytes;
  for (const std::uint32_t encoded : plan.ops[0]) {
    if (stream.area.size() >= probe_ops(run)) break;
    const std::uint32_t arg = encoded >> 2;
    switch (static_cast<ContendedOp>(encoded & 3)) {
      case kGetShared:
        stream.area.push_back(arg);
        stream.is_put.push_back(false);
        break;
      case kLockedInc:
        stream.area.insert(stream.area.end(), {arg, arg});
        stream.is_put.insert(stream.is_put.end(), {false, true});
        break;
      case kRacyPut:
        stream.area.push_back(arg);
        stream.is_put.push_back(true);
        break;
      case kRingStep:
        break;
    }
  }
  run_probes(run, stream);
  set_put_residual(run);
}

ProbeStream private_probe_stream(Run& run) {
  const std::uint32_t areas = run.smoke ? kPrivateAreasSmoke : kPrivateAreas;
  return probe_stream_of(make_private_plan(run.seed, 1, areas, probe_ops(run), 0), probe_ops(run));
}

}  // namespace dsmr::bench
