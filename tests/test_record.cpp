// The record/replay subsystem: varint round-trips (the one shared integer
// wire encoding), log serialize/parse round-trips, structured diagnostics
// for every corruption mode, the dense area index, the threaded seal's merge
// into Lamport stamp order, the one lock-handoff rule, and the core
// equivalence — folding a recorded event stream through the live
// transitions (detect/transitions.hpp) reproduces the live detector's
// verdicts and reports, including for mode=off recordings folded under full
// dual-clock detection (the always-on production story) — and the
// incremental Folder's checkpoint/restore contract behind the explorer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/ground_truth.hpp"
#include "baseline/lockset.hpp"
#include "detect/sharded_detector.hpp"
#include "explore/executor.hpp"
#include "explore/model.hpp"
#include "fuzz/generate.hpp"
#include "fuzz/program.hpp"
#include "fuzz/thread_harness.hpp"
#include "net/fault.hpp"
#include "record/log.hpp"
#include "record/recorder.hpp"
#include "record/replay.hpp"
#include "runtime/process.hpp"
#include "runtime/thread_world.hpp"
#include "runtime/world.hpp"
#include "util/rng.hpp"
#include "util/varint.hpp"

namespace dsmr::record {
namespace {

using mem::GlobalAddress;
using runtime::Process;
using runtime::ThreadProcess;
using runtime::ThreadWorld;
using runtime::ThreadWorldConfig;
using runtime::World;
using runtime::WorldConfig;

// ---------------------------------------------------------------------------
// Varint round-trip property (the shared encoding: clocks + event log).
// ---------------------------------------------------------------------------

TEST(Varint, RoundTripProperty) {
  util::Rng rng(0xbeef);
  std::vector<std::uint64_t> values = {0,      1,       127,        128,
                                       16383,  16384,   (1u << 21), ~std::uint64_t{0},
                                       ~std::uint64_t{0} >> 1};
  for (int i = 0; i < 2000; ++i) {
    // Magnitude-stratified: uniform over bit widths, then over values.
    const int bits = static_cast<int>(rng.below(64)) + 1;
    values.push_back(rng.next() >> (64 - bits));
  }
  std::vector<std::byte> buffer;
  for (const std::uint64_t v : values) {
    const std::size_t start = buffer.size();
    util::put_varint(buffer, v);
    EXPECT_EQ(buffer.size() - start, util::varint_size(v));
  }
  std::size_t pos = 0;
  for (const std::uint64_t v : values) {
    const auto decoded = util::try_get_varint(buffer, &pos);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, v);
  }
  EXPECT_EQ(pos, buffer.size());
}

TEST(Varint, TruncationAndOverflowAreRejected) {
  std::vector<std::byte> buffer;
  util::put_varint(buffer, ~std::uint64_t{0});
  for (std::size_t cut = 0; cut < buffer.size(); ++cut) {
    std::size_t pos = 0;
    EXPECT_FALSE(util::try_get_varint({buffer.data(), cut}, &pos).has_value())
        << "cut " << cut;
  }
  // An 11-byte varint (or a 10th byte carrying more than the top bit)
  // would overflow 64 bits and must be rejected, not wrapped.
  std::vector<std::byte> overflow(10, std::byte{0x80});
  overflow.push_back(std::byte{0x01});
  std::size_t pos = 0;
  EXPECT_FALSE(util::try_get_varint(overflow, &pos).has_value());
  std::vector<std::byte> high_tenth(9, std::byte{0x80});
  high_tenth.push_back(std::byte{0x02});
  pos = 0;
  EXPECT_FALSE(util::try_get_varint(high_tenth, &pos).has_value());
}

// ---------------------------------------------------------------------------
// Log wire format.
// ---------------------------------------------------------------------------

Log sample_log() {
  Log log;
  log.header.nprocs = 3;
  log.header.backend = Backend::kSim;
  log.header.mode = core::DetectorMode::kDualClock;
  log.header.lock_clock_handoff = true;
  log.header.acked_puts = false;
  log.areas = {{0, 64, "x"}, {1, 8, "flag"}, {2, 4096, ""}};
  log.metadata = {{"program", "put 0 x\n"}, {"schedule_seed", "42"}};
  log.events = {
      {EventKind::kTick, 2},
      {EventKind::kPutIssue, 0, 1},
      {EventKind::kPutApply, 0, 1, 8},
      {EventKind::kSignal, 0, 2, 7},
      {EventKind::kWaitMatch, 2, 0, 7, 3},
      {EventKind::kThreadPut, 1, 0, 128},
  };
  log.live.completed = true;
  log.live.stuck_ranks = {};
  log.live.races = {{1, 2, core::AccessKind::kWrite, 2}};
  return log;
}

/// Rewrites the trailing checksum after a deliberate mutation, so the test
/// reaches the structural diagnostic behind the integrity check.
void fix_checksum(std::vector<std::byte>& bytes) {
  const std::uint64_t checksum = fnv1a({bytes.data(), bytes.size() - 8});
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((checksum >> (8 * i)) & 0xff);
  }
}

TEST(RecordLog, SerializeParseRoundTrip) {
  const Log log = sample_log();
  const std::vector<std::byte> bytes = log.serialize();
  std::string error;
  const auto parsed = Log::parse(bytes, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, log);
  // Serialization is canonical: parse → serialize is the identity.
  EXPECT_EQ(parsed->serialize(), bytes);
}

TEST(RecordLog, EmptyLogRoundTrips) {
  Log log;
  log.header.nprocs = 1;
  std::string error;
  const auto parsed = Log::parse(log.serialize(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, log);
}

TEST(RecordLog, TinyFileIsTruncated) {
  std::string error;
  EXPECT_FALSE(Log::parse({}, &error).has_value());
  EXPECT_TRUE(error.starts_with("[truncated]")) << error;
  const std::vector<std::byte> half = {std::byte{'D'}, std::byte{'S'},
                                       std::byte{'M'}, std::byte{'R'}};
  EXPECT_FALSE(Log::parse(half, &error).has_value());
  EXPECT_TRUE(error.starts_with("[truncated]")) << error;
}

TEST(RecordLog, BadMagicIsStructured) {
  std::vector<std::byte> bytes = sample_log().serialize();
  bytes[0] = std::byte{'X'};
  std::string error;
  EXPECT_FALSE(Log::parse(bytes, &error).has_value());
  EXPECT_TRUE(error.starts_with("[bad-magic]")) << error;
}

TEST(RecordLog, VersionMismatchIsStructured) {
  std::vector<std::byte> bytes = sample_log().serialize();
  bytes[8] = std::byte{static_cast<std::uint8_t>(kVersion + 7)};  // version varint
  fix_checksum(bytes);
  std::string error;
  EXPECT_FALSE(Log::parse(bytes, &error).has_value());
  EXPECT_TRUE(error.starts_with("[bad-version]")) << error;
}

TEST(RecordLog, BitFlipFailsTheChecksum) {
  std::vector<std::byte> bytes = sample_log().serialize();
  bytes[bytes.size() / 2] ^= std::byte{0x40};
  std::string error;
  EXPECT_FALSE(Log::parse(bytes, &error).has_value());
  EXPECT_TRUE(error.starts_with("[checksum-mismatch]")) << error;
}

TEST(RecordLog, LengthConsistentTruncationIsStructural) {
  // Drop the tail of the event stream but re-seal the checksum: integrity
  // passes, structure must still fail loudly.
  std::vector<std::byte> bytes = sample_log().serialize();
  bytes.erase(bytes.end() - 20, bytes.end() - 8);
  fix_checksum(bytes);
  std::string error;
  EXPECT_FALSE(Log::parse(bytes, &error).has_value());
  EXPECT_TRUE(error.starts_with("[truncated]")) << error;
}

TEST(RecordLog, UnknownEventKindIsStructured) {
  Log log = sample_log();
  log.metadata.clear();
  std::vector<std::byte> bytes = log.serialize();
  // The first event starts right after the one-byte event count; find it by
  // re-serializing without events and diffing lengths.
  Log no_events = log;
  no_events.events.clear();
  const std::size_t prefix = no_events.serialize().size() - 8 -
                             1 /*event count varint (0 and 6 both 1 byte)*/;
  bytes[prefix + 1] = std::byte{0xee};
  fix_checksum(bytes);
  std::string error;
  EXPECT_FALSE(Log::parse(bytes, &error).has_value());
  EXPECT_TRUE(error.starts_with("[bad-event-kind]")) << error;
}

TEST(RecordLog, TrailingGarbageIsStructured) {
  std::vector<std::byte> bytes = sample_log().serialize();
  bytes.insert(bytes.end() - 8, std::byte{0x00});
  fix_checksum(bytes);
  std::string error;
  EXPECT_FALSE(Log::parse(bytes, &error).has_value());
  EXPECT_TRUE(error.starts_with("[trailing-garbage]")) << error;
}

TEST(RecordLog, HeaderRangeIsValidated) {
  Log log = sample_log();
  log.header.mode = static_cast<core::DetectorMode>(9);
  std::vector<std::byte> bytes = log.serialize();
  std::string error;
  EXPECT_FALSE(Log::parse(bytes, &error).has_value());
  EXPECT_TRUE(error.starts_with("[bad-field]")) << error;
}

// ---------------------------------------------------------------------------
// AreaIndex: the (home, AreaId) → flat table every recorded op resolves.
// ---------------------------------------------------------------------------

TEST(AreaIndex, InterleavedHomesAndGapsResolve) {
  AreaIndex index;
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.add(2, 0), 0u);
  EXPECT_EQ(index.add(0, 0), 1u);
  EXPECT_EQ(index.add(2, 1), 2u);
  EXPECT_EQ(index.add(0, 3), 3u);  // ids 1 and 2 on home 0 stay gaps.
  EXPECT_EQ(index.add(2, 5), 4u);
  EXPECT_EQ(index.size(), 5u);

  EXPECT_EQ(index.at(2, 0), 0u);
  EXPECT_EQ(index.at(0, 0), 1u);
  EXPECT_EQ(index.at(2, 1), 2u);
  EXPECT_EQ(index.at(0, 3), 3u);
  EXPECT_EQ(index.at(2, 5), 4u);
  EXPECT_TRUE(index.contains(0, 3));
  EXPECT_FALSE(index.contains(0, 1));   // gap.
  EXPECT_FALSE(index.contains(2, 4));   // gap.
  EXPECT_FALSE(index.contains(1, 0));   // home between two registered homes.
  EXPECT_FALSE(index.contains(0, 4));   // id past the end.
  EXPECT_FALSE(index.contains(3, 0));   // home past the end.
  EXPECT_FALSE(index.contains(-1, 0));  // negative home.

  // Filling a gap later gets the next flat index, not the gap's position.
  EXPECT_EQ(index.add(0, 1), 5u);
  EXPECT_EQ(index.at(0, 1), 5u);
  EXPECT_EQ(index.size(), 6u);
}

TEST(AreaIndexDeathTest, DuplicatesAndMissingAreasPanic) {
  AreaIndex index;
  index.add(0, 0);
  index.add(0, 2);
  index.add(1, 0);
  EXPECT_DEATH(index.add(0, 2), "area registered twice: home 0 id 2");
  EXPECT_DEATH((void)index.at(2, 0),
               "area not registered with the recorder: home 2 id 0");
  EXPECT_DEATH((void)index.at(1, 1),
               "area not registered with the recorder: home 1 id 1");
  EXPECT_DEATH((void)index.at(0, 1),
               "area not registered with the recorder: home 0 id 1");
}

TEST(AreaIndex, MakeAreaIndexRoundTripsAtScale) {
  // Regression guard: a per-lookup scan of the table makes this quadratic
  // (~5e9 compares); the dense table answers all 1e5 lookups in microseconds.
  constexpr std::uint64_t kAreas = 100'000;
  constexpr int kHomes = 4;
  util::Rng rng(12);
  std::vector<AreaEntry> areas;
  std::vector<std::uint32_t> id_of;  ///< per flat index: its per-home AreaId.
  std::vector<std::uint32_t> next_id(kHomes, 0);
  areas.reserve(kAreas);
  for (std::uint64_t i = 0; i < kAreas; ++i) {
    const auto home = static_cast<Rank>(rng.below(kHomes));
    areas.push_back(AreaEntry{home, 64, ""});
    id_of.push_back(next_id[static_cast<std::size_t>(home)]++);
  }
  const AreaIndex index = make_area_index(areas);
  ASSERT_EQ(index.size(), kAreas);
  for (std::uint64_t flat = 0; flat < kAreas; ++flat) {
    ASSERT_EQ(index.at(areas[flat].home, id_of[flat]), flat);
  }
}

// ---------------------------------------------------------------------------
// Threaded seal: per-rank buffers merged into Lamport stamp order.
// ---------------------------------------------------------------------------

TEST(RecorderSeal, OpsSharingASyncObjectMergeInCallOrder) {
  // One thread stamps for every rank through one shared sync slot, so the
  // call order IS the stamp order: runs of one rank, strict alternation, a
  // rank that goes quiet early (rank 3 after the script) and one that
  // starts late (rank 2).
  Recorder recorder(4, Backend::kThread, core::DetectorMode::kOff, true, true);
  std::vector<Event> expected;
  std::uint64_t sync = 0;
  const auto stamp = [&](Rank rank) {
    const auto n = static_cast<std::uint64_t>(expected.size());
    recorder.record_thread(rank, sync, EventKind::kThreadPut, n % 5, n);
    expected.push_back(Event{EventKind::kThreadPut, static_cast<std::uint64_t>(rank),
                             n % 5, n});
  };
  for (const Rank rank : {0, 0, 0, 1, 3, 1, 3, 1, 0, 3, 3, 1, 1, 0}) stamp(rank);
  util::Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const auto rank = static_cast<Rank>(rng.below(3));  // ranks 0..2
    stamp(rank);
  }
  recorder.finish({}, true, {});
  EXPECT_EQ(recorder.log().events, expected);
}

TEST(RecorderSeal, SyncObjectsOrderTheMergedLog) {
  // Ranks 0 and 2 run far ahead in program order before they synchronize,
  // so their stamps are high; each partner, fresh at stamp 0, must still
  // merge after the op it synchronized with. Field c numbers every call.
  Recorder recorder(4, Backend::kThread, core::DetectorMode::kOff, true, true);
  detect::ShardedDetector detector(4, /*home=*/0, /*shards=*/8);
  detector.register_areas(16);
  std::uint64_t lock_stamp = 0;  // one user lock
  std::uint64_t call = 0;
  const auto tick = [&](Rank rank) { recorder.record_thread(rank, EventKind::kTick, 0, call++); };

  for (int i = 0; i < 20; ++i) tick(0);
  recorder.record_thread(0, lock_stamp, EventKind::kThreadLock, 0, call++);
  const std::uint64_t put = call;
  recorder.record_thread(0, detector.record_stamp(1), EventKind::kThreadPut, 1, call++);
  const std::uint64_t unlock = call;
  recorder.record_thread(0, lock_stamp, EventKind::kThreadUnlock, 0, call++);
  const std::uint64_t lock = call;
  recorder.record_thread(1, lock_stamp, EventKind::kThreadLock, 0, call++);
  // Area 9 shares area 1's shard (9 mod 8): the get is ordered after the put.
  const std::uint64_t get = call;
  recorder.record_thread(1, detector.record_stamp(9), EventKind::kThreadGet, 9, call++);

  for (int i = 0; i < 30; ++i) tick(2);
  const std::uint64_t signal = call;
  std::uint64_t carried = recorder.record_thread(2, EventKind::kSignal, 3, call++);
  tick(3);
  const std::uint64_t wait = call;
  recorder.record_thread(3, carried, EventKind::kWaitMatch, 2, call++);
  for (int i = 0; i < 5; ++i) {
    tick(1);
    tick(3);
  }
  recorder.finish({}, true, {});

  std::vector<std::size_t> at(call);  // call number → position in the log
  std::vector<std::vector<std::uint64_t>> by_rank(4);
  const std::vector<Event>& events = recorder.log().events;
  ASSERT_EQ(events.size(), call);
  for (std::size_t i = 0; i < events.size(); ++i) {
    at[events[i].c] = i;
    by_rank[events[i].a].push_back(events[i].c);
  }
  EXPECT_LT(at[unlock], at[lock]) << "unlock must precede the next lock";
  EXPECT_LT(at[put], at[get]) << "same-shard put must precede the get";
  EXPECT_LT(at[signal], at[wait]) << "signal must precede its wait";
  // Every rank, related to the others or not, keeps its program order.
  for (const auto& calls : by_rank) EXPECT_TRUE(std::is_sorted(calls.begin(), calls.end()));
}

TEST(RecorderSeal, ConcurrentStampsKeepEveryEventInProgramOrder) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20'000;
  Recorder recorder(kThreads, Backend::kThread, core::DetectorMode::kOff, true, true);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        recorder.record_thread(t, EventKind::kThreadGet, 0, i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  recorder.finish({}, true, {});

  const std::vector<Event>& events = recorder.log().events;
  ASSERT_EQ(events.size(), kThreads * kPerThread);
  std::vector<std::uint64_t> next(kThreads, 0);
  for (const Event& event : events) {
    ASSERT_LT(event.a, static_cast<std::uint64_t>(kThreads));
    ASSERT_EQ(event.c, next[event.a]) << "rank " << event.a << " out of program order";
    ++next[event.a];
  }
  EXPECT_EQ(next, std::vector<std::uint64_t>(kThreads, kPerThread));
}

// ---------------------------------------------------------------------------
// Sim recording → fold equivalence.
// ---------------------------------------------------------------------------

/// Runs `setup` on a fresh recorded World and returns the sealed log.
template <typename Setup>
Log record_sim(WorldConfig config, Setup&& setup) {
  World world(config);
  world.record();
  setup(world);
  world.run();
  return world.log();
}

WorldConfig sim_config(int nprocs, core::DetectorMode mode) {
  WorldConfig config;
  config.nprocs = nprocs;
  config.mode = mode;
  return config;
}

void spawn_racy_pair(World& world) {
  // Two unsynchronized writers to the same area: a race on every schedule.
  const GlobalAddress x = world.alloc(0, 8, "x");
  for (Rank r : {0, 1}) {
    world.spawn(r, [x](Process& p) -> sim::Task {
      co_await p.put_value(x, std::uint64_t{1});
    });
  }
}

void spawn_synced(World& world) {
  // Locks, signals and reads with full synchronization: race-free.
  const GlobalAddress x = world.alloc(0, 8, "x");
  const GlobalAddress y = world.alloc(1, 8, "y");
  world.spawn(0, [x, y](Process& p) -> sim::Task {
    co_await p.lock(x);
    co_await p.put_value(x, std::uint64_t{1});
    co_await p.unlock(x);
    p.signal(1, 7);
    co_await p.wait_signal(9);
    co_await p.get_value<std::uint64_t>(y);
  });
  world.spawn(1, [x, y](Process& p) -> sim::Task {
    co_await p.wait_signal(7);
    co_await p.lock(x);
    co_await p.get_value<std::uint64_t>(x);
    co_await p.unlock(x);
    co_await p.put_value(y, std::uint64_t{2});
    p.signal(0, 9);
  });
}

TEST(RecordReplay, FoldReproducesARacyRun) {
  const Log log =
      record_sim(sim_config(2, core::DetectorMode::kDualClock), spawn_racy_pair);
  EXPECT_TRUE(log.live.completed);
  ASSERT_FALSE(log.live.races.empty());
  const ReplayResult folded = replay_fold(log, log.header.mode);
  ASSERT_TRUE(folded.ok()) << folded.error;
  EXPECT_EQ(folded.signature, log.live);
  EXPECT_GT(folded.checks, 0u);
  EXPECT_EQ(check_record_replay_bytes(log.serialize()), "");
}

TEST(RecordReplay, FoldReproducesASynchronizedRun) {
  const Log log =
      record_sim(sim_config(2, core::DetectorMode::kDualClock), spawn_synced);
  EXPECT_TRUE(log.live.completed);
  EXPECT_TRUE(log.live.races.empty());
  const ReplayResult folded = replay_fold(log, log.header.mode);
  ASSERT_TRUE(folded.ok()) << folded.error;
  EXPECT_EQ(folded.signature, log.live);
  EXPECT_EQ(check_record_replay_bytes(log.serialize()), "");
}

TEST(RecordReplay, SingleClockModeFoldMatches) {
  const Log log = record_sim(sim_config(2, core::DetectorMode::kSingleClock),
                             spawn_synced);
  // Single-clock flags the concurrent-read false positives — whatever the
  // live run reported, the fold must agree exactly.
  const ReplayResult folded = replay_fold(log, log.header.mode);
  ASSERT_TRUE(folded.ok()) << folded.error;
  EXPECT_EQ(folded.signature, log.live);
}

TEST(RecordReplay, OffRecordingFoldsUnderFullDetection) {
  // The production split: record with the detector OFF (near-zero cost, no
  // clock bytes on the wire), then fold the log offline under dual-clock.
  const Log log =
      record_sim(sim_config(2, core::DetectorMode::kOff), spawn_racy_pair);
  EXPECT_TRUE(log.live.races.empty());  // live detector was off.
  const ReplayResult off = replay_fold(log, core::DetectorMode::kOff);
  ASSERT_TRUE(off.ok()) << off.error;
  EXPECT_TRUE(off.signature.races.empty());
  const ReplayResult dual = replay_fold(log, core::DetectorMode::kDualClock);
  ASSERT_TRUE(dual.ok()) << dual.error;
  ASSERT_FALSE(dual.signature.races.empty());
  EXPECT_EQ(dual.signature.races.front().area, 0u);
  // The racy pair is write/write on area x; the fold names the racing
  // accessor and kind.
  EXPECT_EQ(dual.signature.races.front().kind, core::AccessKind::kWrite);
}

TEST(RecordReplay, UnackedPutsRegimeFolds) {
  WorldConfig config = sim_config(3, core::DetectorMode::kDualClock);
  config.acked_puts = false;
  config.lock_clock_handoff = false;
  const Log log = record_sim(config, spawn_racy_pair);
  EXPECT_FALSE(log.header.acked_puts);
  const ReplayResult folded = replay_fold(log, log.header.mode);
  ASSERT_TRUE(folded.ok()) << folded.error;
  EXPECT_EQ(folded.signature, log.live);
}

TEST(RecordReplay, PerturbedSchedulesFoldOverFuzzedPrograms) {
  // The heart of the fuzz-grid invariant, in-process: fuzzed programs
  // (locks, signals, collective phases, planted bugs) recorded under
  // perturbed schedules must fold to the live verdicts, through the full
  // serialize → parse round-trip.
  int divergences = 0;
  int races_seen = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    fuzz::GenConfig gen;
    gen.seed = seed;
    gen.plant_bug = seed % 2 == 0;
    gen.nprocs = 3 + static_cast<int>(seed % 2);
    gen.areas = gen.nprocs + 1;
    gen.phases = 2;
    gen.max_ops_per_rank = 4;
    const auto program =
        std::make_shared<const fuzz::Program>(fuzz::generate_program(gen));
    for (const std::uint64_t schedule : {1ull, 5ull}) {
      WorldConfig config = sim_config(program->nprocs, core::DetectorMode::kDualClock);
      config.seed = schedule;
      config.perturb = sim::PerturbConfig{0, 4'000, schedule};
      const Log log = record_sim(config, [&](World& world) {
        fuzz::spawn_program(world, program);
      });
      races_seen += static_cast<int>(log.live.races.size());
      const std::string divergence = check_record_replay_bytes(log.serialize());
      EXPECT_EQ(divergence, "") << "seed " << seed << " schedule " << schedule;
      if (!divergence.empty()) ++divergences;
    }
  }
  EXPECT_EQ(divergences, 0);
  EXPECT_GT(races_seen, 0);  // the planted bugs actually exercised races.
}

TEST(RecordReplay, EveryTransportFoldsToItsLiveReports) {
  // The separate and piggyback layouts check at the initiator, against the
  // V/W fetched under the area lock; the recording folds the check at the
  // apply event, under the same lock. Same verdicts: the footer matches,
  // and so does every report's (access, prior access) pair of log indices.
  int races_seen = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    fuzz::GenConfig gen;
    gen.seed = seed + 100;
    gen.plant_bug = seed % 2 == 0;
    gen.nprocs = 3 + static_cast<int>(seed % 2);
    gen.areas = gen.nprocs + 1;
    gen.phases = 2;
    gen.max_ops_per_rank = 4;
    const auto program =
        std::make_shared<const fuzz::Program>(fuzz::generate_program(gen));
    for (const core::Transport transport :
         {core::Transport::kSeparate, core::Transport::kPiggyback,
          core::Transport::kHomeSide}) {
      WorldConfig config = sim_config(program->nprocs, core::DetectorMode::kDualClock);
      config.transport = transport;
      config.seed = seed;
      config.perturb = sim::PerturbConfig{0, 4'000, seed};
      World world(config);
      world.record();
      fuzz::spawn_program(world, program);
      world.run();
      const Log& log = world.log();
      races_seen += static_cast<int>(world.races().count());
      const std::string where =
          "seed " + std::to_string(seed) + " " + core::to_string(transport);
      EXPECT_EQ(check_record_replay_bytes(log.serialize()), "") << where;
      const ReplayResult folded = replay_fold(log, core::DetectorMode::kDualClock);
      ASSERT_TRUE(folded.ok()) << where << ": " << folded.error;
      EXPECT_EQ(analysis::verdicts_of(folded.reports),
                analysis::verdicts_of(world.races().reports()))
          << where;
    }
  }
  EXPECT_GT(races_seen, 0);
}

TEST(RecordReplay, SeparateLayoutApplyEventsCarryTheByteCount) {
  WorldConfig config = sim_config(2, core::DetectorMode::kDualClock);
  config.transport = core::Transport::kSeparate;
  const Log log = record_sim(config, [](World& world) {
    const GlobalAddress x = world.alloc(0, 16, "x");
    world.spawn(1, [x](Process& p) -> sim::Task {
      co_await p.put_value(x, std::uint64_t{1});
      co_await p.get(x, 4);
    });
  });
  std::vector<std::pair<EventKind, std::uint64_t>> applies;
  for (const Event& event : log.events) {
    if (event.kind == EventKind::kPutApply || event.kind == EventKind::kGetApply) {
      applies.emplace_back(event.kind, event.c);
    }
  }
  const std::vector<std::pair<EventKind, std::uint64_t>> expected{
      {EventKind::kPutApply, 8}, {EventKind::kGetApply, 4}};
  EXPECT_EQ(applies, expected);
}

TEST(RecordReplay, RecoverableFaultPlansFold) {
  // Duplicated/delayed/dropped-but-retransmitted messages perturb delivery
  // order; the recorded order is what happened, so the fold must still
  // match — including signal reordering handled by kWaitMatch field d.
  net::FaultPlan plan;
  plan.drop_ppm = 120'000;
  plan.dup_ppm = 120'000;
  plan.delay_ppm = 250'000;
  plan.delay_min_ns = 1'000;
  plan.delay_max_ns = 40'000;
  plan.salt = 13;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    fuzz::GenConfig gen;
    gen.seed = seed + 100;
    gen.plant_bug = seed % 2 == 0;
    gen.nprocs = 3;
    gen.areas = 4;
    gen.phases = 2;
    gen.max_ops_per_rank = 4;
    const auto program =
        std::make_shared<const fuzz::Program>(fuzz::generate_program(gen));
    WorldConfig config = sim_config(program->nprocs, core::DetectorMode::kDualClock);
    config.seed = seed;
    config.fault = plan;
    const Log log = record_sim(config, [&](World& world) {
      fuzz::spawn_program(world, program);
    });
    EXPECT_EQ(check_record_replay_bytes(log.serialize()), "")
        << "seed " << seed;
  }
}

TEST(RecordReplay, BadTraceFailsLoudly) {
  Log log = record_sim(sim_config(2, core::DetectorMode::kDualClock),
                       spawn_racy_pair);
  // A completion with no pending issue is a trace inconsistency, not a crash.
  log.events.insert(log.events.begin(),
                    Event{EventKind::kPutAck, 0, 0});
  const ReplayResult folded = replay_fold(log, log.header.mode);
  EXPECT_FALSE(folded.ok());
  EXPECT_TRUE(folded.error.starts_with("[bad-trace]")) << folded.error;
  // So is an in-memory area table naming a home past nprocs (Log::parse
  // rejects it on disk input; the fold must not index past its detectors).
  Log bad_home = record_sim(sim_config(2, core::DetectorMode::kDualClock),
                            spawn_racy_pair);
  bad_home.areas[0].home = 2;
  const ReplayResult rejected = replay_fold(bad_home, bad_home.header.mode);
  EXPECT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.error.starts_with("[bad-trace]")) << rejected.error;
}

// ---------------------------------------------------------------------------
// Threaded recording → fold + gated deterministic replay.
// ---------------------------------------------------------------------------

std::vector<std::byte> bytes8(std::uint64_t value) {
  std::vector<std::byte> out(8);
  std::memcpy(out.data(), &value, 8);
  return out;
}

ThreadWorldConfig thread_config(int nprocs, core::DetectorMode mode) {
  ThreadWorldConfig config;
  config.nprocs = nprocs;
  config.mode = mode;
  return config;
}

/// Records one threaded run of `setup` and returns the sealed log.
template <typename Setup>
Log record_threaded(ThreadWorldConfig config, Setup&& setup) {
  Recorder recorder(static_cast<std::uint32_t>(config.nprocs), Backend::kThread,
                    config.mode, config.lock_clock_handoff, config.acked_puts);
  config.recorder = &recorder;
  ThreadWorld world(config);
  setup(world);
  const runtime::ThreadRunReport report = world.run();
  recorder.finish(world.races().reports(), report.completed, report.stuck_ranks);
  return recorder.log();
}

/// Replays `log` through the gate and returns the re-executed run's verdict
/// signature.
template <typename Setup>
VerdictSignature replay_threaded(ThreadWorldConfig config, const Log& log,
                                 Setup&& setup) {
  config.replay = &log;
  config.recorder = nullptr;
  ThreadWorld world(config);
  setup(world);
  const runtime::ThreadRunReport report = world.run();
  const AreaIndex areas = make_area_index(log.areas);
  return make_signature(areas, world.races().reports(), report.completed,
                        report.stuck_ranks);
}

/// Full op coverage (put/get/lock/signal/wait/sleep/compute), race-free.
void spawn_thread_synced(ThreadWorld& world) {
  const GlobalAddress x = world.alloc(0, 8, "x");
  const GlobalAddress y = world.alloc(1, 8, "y");
  world.spawn(0, [x, y](ThreadProcess& p) {
    p.lock(x);
    p.put(x, bytes8(1));
    p.unlock(x);
    p.signal(1, 7);
    p.wait_signal(9);
    p.get(y, 8);
    p.compute(500);
    p.put(y, bytes8(3));
  });
  world.spawn(1, [x, y](ThreadProcess& p) {
    p.wait_signal(7);
    p.lock(x);
    p.get(x, 8);
    p.unlock(x);
    p.put(y, bytes8(2));
    p.sleep(500);
    p.signal(0, 9);
  });
}

void spawn_thread_racy(ThreadWorld& world) {
  const GlobalAddress x = world.alloc(0, 8, "x");
  for (Rank r : {0, 1}) {
    world.spawn(r, [x, r](ThreadProcess& p) { p.put(x, bytes8(static_cast<std::uint64_t>(r))); });
  }
}

// The offline analyses are folds of a log, so they cover the threaded
// backend too.
TEST(ThreadRecordReplay, GroundTruthAndLocksetFoldThreadedLogs) {
  const ThreadWorldConfig config = thread_config(2, core::DetectorMode::kDualClock);
  const Log racy = record_threaded(config, spawn_thread_racy);
  const analysis::GroundTruth racy_truth = analysis::compute_ground_truth(racy);
  EXPECT_EQ(racy_truth.pairs.size(), 1u);
  EXPECT_EQ(racy_truth.racy_areas, (std::set<analysis::AreaKey>{{0, 0}}));
  EXPECT_EQ(racy_truth.unapplied_events, 0u);
  // Ids are log indices: the pair is the run's two puts.
  const analysis::RacePair pair = *racy_truth.pairs.begin();
  EXPECT_EQ(racy.events[pair.first - 1].kind, EventKind::kThreadPut);
  EXPECT_EQ(racy.events[pair.second - 1].kind, EventKind::kThreadPut);
  const baseline::LocksetResult racy_lockset = baseline::LocksetDetector::analyze(racy);
  EXPECT_EQ(racy_lockset.flagged_areas, (std::set<analysis::AreaKey>{{0, 0}}));

  const Log synced = record_threaded(config, spawn_thread_synced);
  const analysis::GroundTruth synced_truth = analysis::compute_ground_truth(synced);
  EXPECT_TRUE(synced_truth.pairs.empty());
  EXPECT_GT(synced_truth.ordered_pairs, 0u);
  // x is only touched under its lock; y is ordered by signals alone, which
  // lockset cannot see — its classic false positive.
  const baseline::LocksetResult synced_lockset =
      baseline::LocksetDetector::analyze(synced);
  EXPECT_EQ(synced_lockset.flagged_areas, (std::set<analysis::AreaKey>{{1, 0}}));
}

TEST(ThreadRecordReplay, SyncedRunFoldsAndReplaysIdentically) {
  const ThreadWorldConfig config = thread_config(2, core::DetectorMode::kDualClock);
  const Log log = record_threaded(config, spawn_thread_synced);
  EXPECT_TRUE(log.live.completed);
  EXPECT_TRUE(log.live.races.empty());
  EXPECT_EQ(check_record_replay_bytes(log.serialize()), "");
  const VerdictSignature first = replay_threaded(config, log, spawn_thread_synced);
  const VerdictSignature second = replay_threaded(config, log, spawn_thread_synced);
  EXPECT_EQ(first, log.live);
  EXPECT_EQ(second, first);
}

TEST(ThreadRecordReplay, RacyRunReplaysDeterministically) {
  const ThreadWorldConfig config = thread_config(2, core::DetectorMode::kDualClock);
  const Log log = record_threaded(config, spawn_thread_racy);
  EXPECT_TRUE(log.live.completed);
  ASSERT_FALSE(log.live.races.empty());
  EXPECT_EQ(check_record_replay_bytes(log.serialize()), "");
  // The real schedule decided WHICH writer got flagged; both replays must
  // re-derive that exact verdict, not just "some race on x".
  const VerdictSignature first = replay_threaded(config, log, spawn_thread_racy);
  const VerdictSignature second = replay_threaded(config, log, spawn_thread_racy);
  EXPECT_EQ(first, log.live) << first.to_string() << " vs " << log.live.to_string();
  EXPECT_EQ(second, first);
}

TEST(ThreadRecordReplay, ScheduleLuckRacesBecomeReplayable) {
  // The kSometimes shape — detection luck, not race luck: rank 0's read R1
  // races with rank 1's write W, but rank 1's own earlier read R2 is
  // program-ordered before W. The online detector compares each access only
  // against the area's LATEST access, so when R1 lands before R2 the read
  // clock rank 1's write sees is R2 (ordered → no flag) and the R1∥W race
  // is hidden; when R1 lands after R2 the write (or the late read) compares
  // against a concurrent access and flags. An out-of-band handshake (an
  // atomic the detector and the log never see) forces each attempt's order:
  // the biased rank yields until the other rank's get has returned.
  const auto program = [](bool bias_race) {
    return [bias_race](ThreadWorld& world) {
      const GlobalAddress x = world.alloc(0, 8, "x");
      const auto got = std::make_shared<std::atomic<bool>>(false);
      const auto await_other_get = [got] {
        while (!got->load()) std::this_thread::yield();
      };
      world.spawn(0, [x, bias_race, got, await_other_get](ThreadProcess& p) {
        if (bias_race) await_other_get();  // R1 after R2.
        p.get(x, 8);  // R1 — races with W on every schedule (ground truth).
        got->store(true);
      });
      world.spawn(1, [x, bias_race, got, await_other_get](ThreadProcess& p) {
        if (!bias_race) await_other_get();  // R2 after R1.
        p.get(x, 8);          // R2 — overwrites the area's read clock.
        got->store(true);
        p.put(x, bytes8(2));  // W — sees R2, not R1, on the clean order.
      });
    };
  };
  const ThreadWorldConfig config = thread_config(2, core::DetectorMode::kDualClock);
  for (const bool bias_race : {true, false}) {
    const Log log = record_threaded(config, program(bias_race));
    ASSERT_TRUE(log.live.completed);
    EXPECT_EQ(log.live.races.empty(), !bias_race) << log.live.to_string();
    // The fold and a gated replay both reproduce the run's verdicts: a
    // manifested schedule-luck race is flagged again, a clean order of the
    // same program replays clean.
    EXPECT_EQ(check_record_replay_bytes(log.serialize()), "");
    const VerdictSignature replayed = replay_threaded(config, log, program(bias_race));
    EXPECT_EQ(replayed, log.live)
        << replayed.to_string() << " vs " << log.live.to_string();
  }
}

TEST(ThreadRecordReplay, FoldedReportsMatchLiveReportsFieldByField) {
  // The fold runs the live transition (detect::thread_access) over the same
  // detector state, so each report it files is the live one: same accessor
  // clock, stored clock, compared lane, area and kind. Event ids differ: the
  // fold names log indices. Report order may differ (live reports from different shards
  // race to the report log), so both sides are compared sorted.
  const auto program = [](ThreadWorld& world) {
    const GlobalAddress x = world.alloc(0, 8, "x");
    const GlobalAddress y = world.alloc(1, 8, "y");
    for (const Rank r : {0, 1, 2}) {
      world.spawn(r, [x, y, r](ThreadProcess& p) {
        p.put(x, bytes8(static_cast<std::uint64_t>(r)));
        p.get(y, 8);
        p.put(y, bytes8(static_cast<std::uint64_t>(r)));
        p.get(x, 8);
      });
    }
  };
  ThreadWorldConfig config = thread_config(3, core::DetectorMode::kDualClock);
  Recorder recorder(3, Backend::kThread, config.mode, config.lock_clock_handoff,
                    config.acked_puts);
  config.recorder = &recorder;
  ThreadWorld world(config);
  program(world);
  const runtime::ThreadRunReport run = world.run();
  recorder.finish(world.races().reports(), run.completed, run.stuck_ranks);
  const Log& log = recorder.log();
  ASSERT_FALSE(world.races().reports().empty());

  const ReplayResult folded = replay_fold(log, log.header.mode);
  ASSERT_TRUE(folded.ok()) << folded.error;
  using Key = std::tuple<Rank, std::uint64_t, Rank, int, std::string, int, std::string>;
  const auto key = [](std::uint64_t flat_area, const core::RaceReport& report) {
    return Key{report.home,
               flat_area,
               report.accessor,
               static_cast<int>(report.kind),
               report.accessor_clock.to_string(),
               static_cast<int>(report.against),
               report.stored_clock.to_string()};
  };
  const AreaIndex areas = make_area_index(log.areas);
  std::vector<Key> live;
  for (const core::RaceReport& report : world.races().reports()) {
    live.push_back(key(areas.at(report.home, report.area), report));
  }
  std::vector<Key> offline;
  for (const core::RaceReport& report : folded.reports) {
    offline.push_back(key(report.area, report));
  }
  std::sort(live.begin(), live.end());
  std::sort(offline.begin(), offline.end());
  EXPECT_EQ(offline, live);
}

/// Every field of a race report, in a sortable form.
using ReportKey = std::tuple<Rank, std::uint32_t, std::string, Rank, int, std::uint64_t,
                             std::string, int, std::string, std::uint64_t>;

std::vector<ReportKey> report_keys(const std::vector<core::RaceReport>& reports) {
  std::vector<ReportKey> keys;
  for (const core::RaceReport& r : reports) {
    keys.emplace_back(r.home, r.area, r.area_name, r.accessor, static_cast<int>(r.kind),
                      r.event_id, r.accessor_clock.to_string(), static_cast<int>(r.against),
                      r.stored_clock.to_string(), r.prior_event_id);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(ThreadRecordReplay, LocksSignalsAndRacesReplayFieldForField) {
  // Every sync object the recorder stamps through — detector shards, a user
  // lock, signals — in one run, plus a racy area, so the merged log must
  // order all three kinds of edge. The fold and two gated replays must
  // reproduce the live verdicts; a replay that records again must
  // reproduce the log itself, stamps and all.
  constexpr int kRanks = 4;
  const auto program = [](ThreadWorld& world) {
    const GlobalAddress guarded = world.alloc(0, 8, "guarded");
    const GlobalAddress racy = world.alloc(1, 8, "racy");
    for (Rank r = 0; r < kRanks; ++r) {
      world.spawn(r, [=](ThreadProcess& p) {
        for (int i = 0; i < 3; ++i) {
          p.lock(guarded);
          p.get(guarded, 8);
          p.put(guarded, bytes8(static_cast<std::uint64_t>(r)));
          p.unlock(guarded);
          p.put(racy, bytes8(static_cast<std::uint64_t>(i)));
          p.signal(static_cast<Rank>((r + 1) % kRanks), 3);
          p.wait_signal(3);
          p.get(racy, 8);
          p.compute(100);
        }
      });
    }
  };
  ThreadWorldConfig config = thread_config(kRanks, core::DetectorMode::kDualClock);
  Recorder recorder(kRanks, Backend::kThread, config.mode, config.lock_clock_handoff,
                    config.acked_puts);
  config.recorder = &recorder;
  std::vector<ReportKey> live;
  {
    ThreadWorld world(config);
    program(world);
    const runtime::ThreadRunReport run = world.run();
    recorder.finish(world.races().reports(), run.completed, run.stuck_ranks);
    live = report_keys(world.races().reports());
  }
  const Log& log = recorder.log();
  ASSERT_TRUE(log.live.completed);
  ASSERT_FALSE(log.live.races.empty());
  EXPECT_EQ(check_record_replay_bytes(log.serialize()), "");

  for (int replay = 0; replay < 2; ++replay) {
    Recorder again(kRanks, Backend::kThread, config.mode, config.lock_clock_handoff,
                   config.acked_puts);
    ThreadWorldConfig gated = config;
    gated.replay = &log;
    gated.recorder = &again;
    ThreadWorld world(gated);
    program(world);
    const runtime::ThreadRunReport run = world.run();
    again.finish(world.races().reports(), run.completed, run.stuck_ranks);
    EXPECT_EQ(again.log().live, log.live) << "replay " << replay;
    EXPECT_EQ(report_keys(world.races().reports()), live) << "replay " << replay;
    EXPECT_EQ(again.log().events, log.events) << "replay " << replay;
  }
}

// ---------------------------------------------------------------------------
// One lock-handoff rule: both backends' logs merge successive releases.
// ---------------------------------------------------------------------------

/// The `handoff=` value on area 0's line of a state digest.
std::string area0_handoff(const std::string& digest) {
  const std::size_t line = digest.find("\na0 ");
  const std::size_t start = digest.find("handoff=", line) + 8;
  return digest.substr(start, digest.find('\n', start) - start);
}

TEST(RecordReplay, HandoffJoinsReleasesOnBothBackends) {
  // Ranks 1 and 2 both release area 0's lock with no acquire in between;
  // rank 0 then acquires. The handoff must be the join of both releases
  // (010 ∨ 001) on a sim log and a thread log alike, and the acquirer
  // merges all of it.
  Log sim;
  sim.header.nprocs = 3;
  sim.header.backend = Backend::kSim;
  sim.areas = {{0, 8, "m"}};
  sim.events = {
      {EventKind::kUnlockIssue, 1, 0}, {EventKind::kUnlockIssue, 2, 0},
      {EventKind::kUnlockApply, 1, 0}, {EventKind::kUnlockApply, 2, 0},
      {EventKind::kLock, 0, 0},
  };
  Log thread = sim;
  thread.header.backend = Backend::kThread;
  thread.events = {
      {EventKind::kThreadUnlock, 1, 0},
      {EventKind::kThreadUnlock, 2, 0},
      {EventKind::kThreadLock, 0, 0},
  };
  for (const Log* log : {&sim, &thread}) {
    const std::string digest = replay_state_digest(*log, core::DetectorMode::kDualClock);
    EXPECT_EQ(area0_handoff(digest), "011") << digest;
    EXPECT_TRUE(digest.starts_with("r0=111\n")) << digest;
  }
}

TEST(ThreadRecordReplay, OffRecordingReplaysUnderDualClock) {
  // Record with the detector off (production recording cost), then re-run
  // the log under the full dual-clock detector: the gate pins the schedule,
  // so detection happens "live" on an execution that already finished.
  const Log log = record_threaded(thread_config(2, core::DetectorMode::kOff),
                                  spawn_thread_racy);
  EXPECT_TRUE(log.live.races.empty());  // detector was off.
  ThreadWorldConfig config = thread_config(2, core::DetectorMode::kDualClock);
  const VerdictSignature first = replay_threaded(config, log, spawn_thread_racy);
  const VerdictSignature second = replay_threaded(config, log, spawn_thread_racy);
  ASSERT_FALSE(first.races.empty());
  EXPECT_EQ(second, first);
  // The offline fold at dual-clock agrees with the gated dual-clock rerun.
  const ReplayResult folded = replay_fold(log, core::DetectorMode::kDualClock);
  ASSERT_TRUE(folded.ok()) << folded.error;
  EXPECT_EQ(folded.signature.races, first.races);
}

TEST(ThreadRecordReplay, StuckRecordingReproducesStuckRanksFast) {
  const auto program = [](ThreadWorld& world) {
    const GlobalAddress x = world.alloc(0, 8, "x");
    world.spawn(0, [](ThreadProcess& p) { p.wait_signal(99); });  // never sent.
    world.spawn(1, [x](ThreadProcess& p) { p.put(x, bytes8(1)); });
  };
  ThreadWorldConfig config = thread_config(2, core::DetectorMode::kDualClock);
  config.run_timeout = std::chrono::milliseconds(300);
  const Log log = record_threaded(config, program);
  EXPECT_FALSE(log.live.completed);
  ASSERT_EQ(log.live.stuck_ranks, (std::vector<Rank>{0}));
  EXPECT_EQ(check_record_replay_bytes(log.serialize()), "");
  // Replay does NOT wait out the deadline: rank 0 has no logged events left
  // at its wait, so the gate reports it stuck immediately.
  config.run_timeout = std::chrono::milliseconds(10'000);
  const auto start = std::chrono::steady_clock::now();
  const VerdictSignature replayed = replay_threaded(config, log, program);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(replayed, log.live);
  EXPECT_LT(elapsed, std::chrono::milliseconds(5'000));
}

// ---------------------------------------------------------------------------
// record::Folder: checkpoint / step / restore.
// ---------------------------------------------------------------------------

/// Fuzzed sim recordings over all three transports, the separate and
/// piggyback ones with the detector off (they fold at any mode; their fold
/// digests are pinned below). The regimes vary so unacked puts and
/// handoff-free unlocks appear too.
std::vector<Log> fuzzed_sim_logs() {
  std::vector<Log> logs;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    fuzz::GenConfig gen;
    gen.seed = seed;
    gen.plant_bug = seed % 2 == 0;
    gen.nprocs = 3 + static_cast<int>(seed % 2);
    gen.areas = gen.nprocs + 1;
    gen.phases = 2;
    gen.max_ops_per_rank = 4;
    const auto program =
        std::make_shared<const fuzz::Program>(fuzz::generate_program(gen));
    for (const core::Transport transport :
         {core::Transport::kSeparate, core::Transport::kPiggyback,
          core::Transport::kHomeSide}) {
      WorldConfig config = sim_config(
          program->nprocs, transport == core::Transport::kHomeSide
                               ? core::DetectorMode::kDualClock
                               : core::DetectorMode::kOff);
      config.transport = transport;
      config.seed = seed;
      config.perturb = sim::PerturbConfig{0, 4'000, seed};
      config.acked_puts = seed % 4 != 1;
      config.lock_clock_handoff = seed % 3 != 2;
      logs.push_back(record_sim(config, [&](World& world) {
        fuzz::spawn_program(world, program);
      }));
    }
  }
  return logs;
}

/// Threaded recordings of fuzzed programs (whatever schedule the OS picks).
std::vector<Log> fuzzed_thread_logs() {
  std::vector<Log> logs;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    fuzz::GenConfig gen;
    gen.seed = seed + 50;
    gen.plant_bug = seed % 2 == 1;
    gen.nprocs = 3;
    gen.areas = 4;
    gen.phases = 2;
    gen.max_ops_per_rank = 4;
    const fuzz::Program program = fuzz::generate_program(gen);
    fuzz::ThreadRunOptions options;
    options.mode = seed % 3 == 0 ? core::DetectorMode::kOff : core::DetectorMode::kDualClock;
    Recorder recorder(static_cast<std::uint32_t>(program.nprocs), Backend::kThread,
                      options.mode, ThreadWorldConfig::lock_clock_handoff,
                      ThreadWorldConfig::acked_puts);
    options.recorder = &recorder;
    fuzz::run_program_threaded(program, options);
    logs.push_back(recorder.log());
  }
  return logs;
}

/// Every report field the fold fills, one line per report.
std::string render_reports(const std::vector<core::RaceReport>& reports) {
  std::string out;
  for (const core::RaceReport& r : reports) {
    out += std::to_string(r.id) + " e" + std::to_string(r.event_id) + " h" +
           std::to_string(r.home) + " a" +
           std::to_string(r.area) + " " + r.area_name + " r" +
           std::to_string(r.accessor) + " k" + std::to_string(static_cast<int>(r.kind)) +
           " " + r.accessor_clock.to_string() + " vs" +
           std::to_string(static_cast<int>(r.against)) + " " +
           r.stored_clock.to_string() + "\n";
  }
  return out;
}

/// A random walk of checkpoints, steps and restores over `log`: every
/// restore must bring back the digest taken at its checkpoint. Then the
/// walk climbs back to its oldest mark and folds on to the end, which must
/// equal a plain replay_fold. Returns the number of restores checked.
int check_checkpoint_contract(const Log& log, core::DetectorMode mode,
                              std::uint64_t seed) {
  struct Saved {
    Folder::Mark mark;
    std::string digest;
    std::size_t next;  ///< index of the next event to fold.
  };
  Folder folder(log, mode);
  util::Rng rng(seed);
  std::vector<Saved> marks;
  std::size_t next = 0;
  int restores = 0;
  const auto restore_back = [&] {
    folder.restore(marks.back().mark);
    EXPECT_EQ(folder.state_digest(), marks.back().digest) << "event " << next;
    next = marks.back().next;
    marks.pop_back();
    ++restores;
  };
  for (int guard = 0; next < log.events.size() && guard < 100'000; ++guard) {
    const std::uint64_t move = rng.below(6);
    if (move == 0) {
      marks.push_back({folder.checkpoint(), folder.state_digest(), next});
    } else if (move == 1 && !marks.empty()) {
      restore_back();
    } else {
      EXPECT_TRUE(folder.step(log.events[next])) << folder.error();
      ++next;
    }
  }
  while (!marks.empty()) restore_back();
  for (; next < log.events.size(); ++next) {
    EXPECT_TRUE(folder.step(log.events[next])) << folder.error();
  }
  const ReplayResult plain = replay_fold(log, mode);
  EXPECT_EQ(folder.state_digest(), replay_state_digest(log, mode));
  const ReplayResult folded =
      std::move(folder).finish(log.live.completed, log.live.stuck_ranks);
  EXPECT_EQ(folded.error, plain.error);
  EXPECT_EQ(folded.signature, plain.signature);
  EXPECT_EQ(folded.checks, plain.checks);
  EXPECT_EQ(folded.events, plain.events);
  EXPECT_EQ(render_reports(folded.reports), render_reports(plain.reports));
  return restores;
}

TEST(Folder, CheckpointRestoreOnFuzzedSimLogs) {
  int restores = 0;
  std::uint64_t seed = 0;
  for (const Log& log : fuzzed_sim_logs()) {
    for (const core::DetectorMode mode :
         {core::DetectorMode::kDualClock, core::DetectorMode::kSingleClock}) {
      restores += check_checkpoint_contract(log, mode, ++seed);
    }
  }
  EXPECT_GT(restores, 500);
}

TEST(Folder, CheckpointRestoreOnRecordedThreadLogs) {
  int restores = 0;
  std::uint64_t seed = 0;
  for (const Log& log : fuzzed_thread_logs()) {
    restores += check_checkpoint_contract(log, core::DetectorMode::kDualClock, ++seed);
  }
  EXPECT_GT(restores, 50);
}

// A failed step changes nothing, later steps are refused, and restoring a
// mark taken before the failure clears the error.
TEST(Folder, RestoreUndoesAFailedStep) {
  const Log log =
      record_sim(sim_config(2, core::DetectorMode::kDualClock), spawn_synced);
  ASSERT_GT(log.events.size(), 4u);
  const std::size_t half = log.events.size() / 2;
  Folder folder(log, log.header.mode);
  for (std::size_t i = 0; i < half; ++i) ASSERT_TRUE(folder.step(log.events[i]));
  const Folder::Mark mark = folder.checkpoint();
  const std::string digest = folder.state_digest();
  EXPECT_FALSE(folder.step(Event{EventKind::kThreadPut, 0, 99, 8}));
  EXPECT_TRUE(folder.error().starts_with("[bad-trace] event #" + std::to_string(half)))
      << folder.error();
  EXPECT_FALSE(folder.step(log.events[half]));  // a failed fold stays failed.
  folder.restore(mark);
  EXPECT_TRUE(folder.ok());
  EXPECT_EQ(folder.state_digest(), digest);
  for (std::size_t i = half; i < log.events.size(); ++i) {
    ASSERT_TRUE(folder.step(log.events[i])) << folder.error();
  }
  const ReplayResult folded =
      std::move(folder).finish(log.live.completed, log.live.stuck_ranks);
  EXPECT_EQ(folded.signature, log.live);
}

// A wait may consume a later same-channel send first (reordering under
// perturbation or faults); restore must put that send back at its own
// position in the queue, not at the front.
TEST(Folder, RestorePutsAReorderedSignalBackInPlace) {
  Log log;
  log.header.nprocs = 2;
  log.header.backend = Backend::kThread;
  log.areas = {{0, 8, "x"}};
  log.events = {
      {EventKind::kSignal, 1, 0, 7},       {EventKind::kSignal, 1, 0, 7},
      {EventKind::kWaitMatch, 0, 1, 7, 2}, {EventKind::kWaitMatch, 0, 1, 7, 1},
  };
  Folder folder(log, core::DetectorMode::kDualClock);
  ASSERT_TRUE(folder.step(log.events[0]));
  ASSERT_TRUE(folder.step(log.events[1]));
  const Folder::Mark mark = folder.checkpoint();
  const std::string digest = folder.state_digest();
  EXPECT_NE(digest.find("signal 1->0 t7: 01 02"), std::string::npos) << digest;
  ASSERT_TRUE(folder.step(log.events[2]));
  folder.restore(mark);
  EXPECT_EQ(folder.state_digest(), digest);
  ASSERT_TRUE(folder.step(log.events[2]));
  ASSERT_TRUE(folder.step(log.events[3]));
  EXPECT_EQ(folder.state_digest(), replay_state_digest(log, core::DetectorMode::kDualClock));
}

/// Logs the explorer folds: random Executor schedules of the benchmark
/// generator's config (3 ranks, 4 areas, 3 phases, 2 ops per rank), sealed
/// by make_witness_log. Each log's signal tags are then collapsed to one
/// tag per (src, dst) pair. Each wait still names its own send by the
/// sender's component, so the log stays valid, but a wait may now consume
/// a later same-channel send while an earlier one is still queued.
/// `*reordered` counts those waits.
std::vector<Log> explorer_logs(std::size_t* reordered) {
  std::vector<Log> logs;
  *reordered = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    fuzz::GenConfig gen;
    gen.seed = seed;
    gen.plant_bug = seed % 2 == 0;
    gen.bug_kind = seed % 4 == 0 ? fuzz::BugKind::kAckWindow : fuzz::BugKind::kPartialBarrier;
    gen.nprocs = 3;
    gen.areas = 4;
    gen.area_bytes = 8;
    gen.phases = 3;
    gen.max_ops_per_rank = 2;
    gen.max_sync_edges = 1;
    gen.collective_fraction = 0.0;
    const explore::FlatProgram flat = explore::flatten_program(fuzz::generate_program(gen));
    explore::Executor executor(&flat);
    util::Rng rng(seed);
    for (std::vector<Rank> enabled = executor.enabled(); !enabled.empty();
         enabled = executor.enabled()) {
      executor.execute(enabled[rng.below(enabled.size())]);
    }
    Log log = explore::make_witness_log(flat, executor.events(),
                                        core::DetectorMode::kDualClock, {});
    // Collapse the tags and count the waits that skip a queued send. A
    // rank's clock component is its event count, so a send's stamp is the
    // count after it.
    std::vector<std::uint64_t> count(3, 0);
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<std::uint64_t>> queued;
    for (Event& event : log.events) {
      ++count[event.a];
      if (event.kind == EventKind::kSignal) {
        event.c = 0;
        queued[{event.a, event.b}].push_back(count[event.a]);
      } else if (event.kind == EventKind::kWaitMatch) {
        event.c = 0;
        std::vector<std::uint64_t>& channel = queued[{event.b, event.a}];
        const auto it = std::find(channel.begin(), channel.end(), event.d);
        EXPECT_NE(it, channel.end()) << "seed " << seed;
        if (it != channel.begin()) ++*reordered;
        if (it != channel.end()) channel.erase(it);
      }
    }
    logs.push_back(std::move(log));
  }
  return logs;
}

// The explorer's own logs: thread events only, a few signals in flight at
// once, and waits that consume a same-channel send out of send order.
TEST(Folder, CheckpointRestoreOnExplorerLogs) {
  std::size_t reordered = 0;
  int restores = 0;
  std::uint64_t seed = 0;
  for (const Log& log : explorer_logs(&reordered)) {
    restores += check_checkpoint_contract(log, core::DetectorMode::kDualClock, ++seed);
  }
  EXPECT_GE(reordered, 10u);
  EXPECT_GT(restores, 1000);
}

// In-flight signals render in channel-key order, whatever order they were
// sent in.
TEST(Folder, StateDigestOrdersSignalsByChannel) {
  Log log;
  log.header.nprocs = 2;
  log.header.backend = Backend::kThread;
  log.areas = {{0, 8, "x"}};
  log.events = {{EventKind::kSignal, 1, 0, 9}, {EventKind::kSignal, 0, 1, 7}};
  const std::string digest = replay_state_digest(log, core::DetectorMode::kDualClock);
  const std::size_t first = digest.find("signal 0->1 t7: 10\n");
  const std::size_t second = digest.find("signal 1->0 t9: 01\n");
  ASSERT_NE(first, std::string::npos) << digest;
  ASSERT_NE(second, std::string::npos) << digest;
  EXPECT_LT(first, second) << digest;
}

// A delivered signal leaves nothing behind: after each of 10^4
// signal/wait pairs on distinct tags the digest shows no signal, and
// restoring the mark taken before the first pair brings back the start.
TEST(Folder, DeliveredSignalsLeaveNoTrace) {
  constexpr std::uint64_t kPairs = 10'000;
  Log log;
  log.header.nprocs = 2;
  log.header.backend = Backend::kThread;
  log.areas = {{0, 8, "x"}};
  Folder folder(log, core::DetectorMode::kDualClock);
  const Folder::Mark mark = folder.checkpoint();
  const std::string start = folder.state_digest();
  for (std::uint64_t tag = 0; tag < kPairs; ++tag) {
    // Rank 0's clock component after its signal is its signal count.
    ASSERT_TRUE(folder.step({EventKind::kSignal, 0, 1, tag}));
    ASSERT_TRUE(folder.step({EventKind::kWaitMatch, 1, 0, tag, tag + 1})) << folder.error();
    const std::string digest = folder.state_digest();
    ASSERT_EQ(digest.find("signal"), std::string::npos) << "pair " << tag << ":\n" << digest;
  }
  folder.restore(mark);
  EXPECT_EQ(folder.state_digest(), start);
}

/// Checks that every report folded from `log` at dual-clock detection names
/// the access that raised it and the access it raced with: the 1-based log
/// indices of the accesses' issue events (their only events on the threaded
/// backend) — the reporter's of its kind, on its area, and an earlier
/// access to the same area. Returns the report count.
std::size_t check_report_events(const Log& log) {
  const ReplayResult folded = replay_fold(log, core::DetectorMode::kDualClock);
  EXPECT_TRUE(folded.ok()) << folded.error;
  for (const core::RaceReport& report : folded.reports) {
    if (report.event_id < 1 || report.event_id > log.events.size()) {
      ADD_FAILURE() << "event " << report.event_id << " outside the log";
      continue;
    }
    const Event& event = log.events[report.event_id - 1];
    EXPECT_TRUE(opens_access(event.kind)) << to_string(event.kind);
    EXPECT_EQ(access_kind(event.kind), report.kind) << to_string(event.kind);
    EXPECT_EQ(event.a, static_cast<std::uint64_t>(report.accessor));
    EXPECT_EQ(event.b, report.area);
    if (report.prior_event_id < 1 || report.prior_event_id >= report.event_id) {
      ADD_FAILURE() << "prior event " << report.prior_event_id << " not before "
                    << report.event_id;
      continue;
    }
    const Event& prior = log.events[report.prior_event_id - 1];
    EXPECT_TRUE(opens_access(prior.kind)) << to_string(prior.kind);
    EXPECT_EQ(prior.b, report.area);
  }
  return folded.reports.size();
}

TEST(Folder, ReportsNameTheirTriggeringEvent) {
  EXPECT_GT(check_report_events(record_sim(
                sim_config(2, core::DetectorMode::kDualClock), spawn_racy_pair)),
            0u);
  EXPECT_GT(check_report_events(record_threaded(
                thread_config(2, core::DetectorMode::kDualClock), spawn_thread_racy)),
            0u);
  std::size_t reports = 0;
  for (const Log& log : fuzzed_sim_logs()) reports += check_report_events(log);
  for (const Log& log : fuzzed_thread_logs()) reports += check_report_events(log);
  EXPECT_GT(reports, 10u);
}

// replay_state_digest is a contract: the explorer's independence property
// test and parent-vs-change checks compare digests byte for byte. This
// pins the digests of the fuzzed sim logs (every event kind, all three
// transports) at two fold modes.
TEST(Folder, StateDigestsOfFuzzedSimLogsArePinned) {
  std::string all;
  for (const Log& log : fuzzed_sim_logs()) {
    for (const core::DetectorMode mode :
         {core::DetectorMode::kDualClock, core::DetectorMode::kOff}) {
      all += replay_state_digest(log, mode);
    }
  }
  const auto* bytes = reinterpret_cast<const std::byte*>(all.data());
  EXPECT_EQ(fnv1a({bytes, all.size()}), 0x3338acab612abc96ull) << all.size() << " digest bytes";
}

}  // namespace
}  // namespace dsmr::record
