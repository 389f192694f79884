// The sharded detector core: per-area verdicts ≡ core::check_access ≡ the
// full-clock oracle over stored, read-only and restored lanes, shard
// partitioning as a pure locking concern (verdict-neutral at 1/2/8 shards on
// fuzzed programs, sim bit-identical / threaded signature-equal), cold-area
// storage behavior at production scale, the vectorized clock compare against
// its scalar oracle, and the delta clock codec behind the piggyback wire
// accounting.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "clocks/vector_clock.hpp"
#include "core/rules.hpp"
#include "detect/sharded_detector.hpp"
#include "fuzz/generate.hpp"
#include "fuzz/program.hpp"
#include "fuzz/thread_harness.hpp"
#include "runtime/world.hpp"
#include "util/rng.hpp"

namespace dsmr::detect {
namespace {

using clocks::VectorClock;
using core::AccessKind;
using core::DetectorMode;

// ---------------------------------------------------------------------------
// Cold areas at scale
// ---------------------------------------------------------------------------

TEST(ShardedDetector, MillionColdAreasMaterializeNoClocks) {
  // Production scale: registering 10^6 areas must not allocate per-area
  // clocks (every cold lane reads as the shared zero clock), and every cold
  // area must check as the zero clock does: ordered before any event, so
  // no race.
  constexpr std::size_t kAreas = 1'000'000;
  constexpr std::size_t kProcs = 4;
  ShardedDetector det(kProcs, /*home=*/0, /*shards=*/8);
  det.register_areas(kAreas);
  EXPECT_EQ(det.area_count(), kAreas);
  EXPECT_EQ(det.resident_clock_bytes(), 0u);

  VectorClock issue(kProcs);
  issue[2] = 1;  // rank 2's first event.
  const VectorClock zero(kProcs);
  for (const AccessKind kind : {AccessKind::kWrite, AccessKind::kRead}) {
    const core::Verdict cold = core::check_access_oracle(
        DetectorMode::kDualClock, kind, 2, issue,
        core::StoredClocks{zero, zero, kInvalidRank, kInvalidRank});
    EXPECT_FALSE(cold.race);
    std::size_t mismatches = 0;
    for (AreaId id = 0; id < kAreas; ++id) {
      if (det.check_one(DetectorMode::kDualClock, kind, 2, issue, id) != cold) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u);
  }
  EXPECT_EQ(det.resident_clock_bytes(), 0u);  // checks materialize nothing.
}

TEST(ShardedDetector, StorageAppearsOnlyWhereAccessesLand) {
  ShardedDetector det(4, /*home=*/1, /*shards=*/2);
  det.register_areas(100);
  VectorClock clk(4);
  clk[1] = 1;
  det.store_access(7, /*owner=*/1, clk, /*is_write=*/true, /*accessor=*/3, 42);
  // One touched area: V and W lanes own separate materialized slots.
  EXPECT_EQ(det.resident_clock_bytes(), 2u * clk.fixed_wire_size());
  EXPECT_EQ(det.last_write_event(7), 42u);
  EXPECT_EQ(det.last_access_rank(7), 3);
  EXPECT_EQ(det.v_clock(7), clk);
  EXPECT_EQ(det.w_clock(7), clk);
  // A later read-only store moves V but must leave W untouched.
  VectorClock clk2 = clk;
  clk2[1] = 2;
  det.store_access(7, 1, clk2, /*is_write=*/false, /*accessor=*/0, 43);
  EXPECT_EQ(det.v_clock(7), clk2);
  EXPECT_EQ(det.w_clock(7), clk);
}

// ---------------------------------------------------------------------------
// check_one ≡ check_access ≡ check_access_oracle
// ---------------------------------------------------------------------------

/// Drives a detector into a random-but-consistent state: each rank keeps a
/// genuine event clock (ticked, occasionally merged), and random areas store
/// random ranks' events. Returns the per-rank clocks for issuing queries.
std::vector<VectorClock> seed_random_state(ShardedDetector& det, std::size_t nprocs,
                                           std::size_t areas, util::Rng& rng) {
  std::vector<VectorClock> clocks(nprocs, VectorClock(nprocs));
  for (int step = 0; step < 400; ++step) {
    const auto r = static_cast<std::size_t>(rng.next() % nprocs);
    clocks[r][r] += 1;  // tick: the clock names a new event at r.
    if (rng.next() % 4 == 0) {
      clocks[r].merge_from(clocks[rng.next() % nprocs]);
    }
    const auto id = static_cast<AreaId>(rng.next() % areas);
    det.store_access(id, static_cast<Rank>(r), clocks[r],
                     /*is_write=*/rng.next() % 2 == 0, static_cast<Rank>(r),
                     static_cast<std::uint64_t>(step + 1));
  }
  return clocks;
}

/// Area `id`'s stored state as the legacy entry points take it.
core::StoredClocks stored_clocks(const ShardedDetector& det, AreaId id) {
  return {det.v_clock(id),          det.w_clock(id),
          det.last_access_rank(id), det.last_write_rank(id),
          det.v_epoch(id),          det.w_epoch(id)};
}

TEST(ShardedDetector, CheckOneMatchesCheckAccessAtEveryShardCount) {
  constexpr std::size_t kProcs = 5;
  constexpr std::size_t kAreas = 64;
  for (const int shards : {1, 2, 8}) {
    util::Rng rng(1234);  // same state regardless of shard count.
    ShardedDetector det(kProcs, /*home=*/0, shards);
    det.register_areas(kAreas);
    auto clocks = seed_random_state(det, kProcs, kAreas, rng);

    for (int query = 0; query < 60; ++query) {
      const auto accessor = static_cast<Rank>(rng.next() % kProcs);
      auto& issue = clocks[static_cast<std::size_t>(accessor)];
      issue[static_cast<std::size_t>(accessor)] += 1;  // post-tick event clock.
      const AccessKind kind =
          rng.next() % 2 == 0 ? AccessKind::kWrite : AccessKind::kRead;
      const DetectorMode mode = rng.next() % 4 == 0
                                    ? DetectorMode::kSingleClock
                                    : DetectorMode::kDualClock;
      for (AreaId id = 0; id < kAreas; ++id) {
        EXPECT_EQ(det.check_one(mode, kind, accessor, issue, id),
                  core::check_access(mode, kind, accessor, issue, stored_clocks(det, id)))
            << "area " << id << " shards " << shards;
      }
    }
  }
}

TEST(ShardedDetector, CheckOneMatchesOracleOnStoredReadOnlyAndRestoredLanes) {
  // Stored lanes on both sides of 64-slot boundaries and next to each
  // other, read-only stores (V stored, W pristine), lanes that restore_lane
  // returned to pristine, and a write initiated by the query's accessor
  // (stored, as a home-side apply stores it, as rank 1's clock). Every
  // area's check_one verdict must equal the full-clock oracle's, and flag a
  // race exactly on the lanes another rank's access stored.
  constexpr std::size_t kProcs = 4;
  constexpr std::size_t kAreas = 260;
  const std::set<AreaId> writes = {0, 63, 65, 127, 128, 192, 255, 259};
  const std::set<AreaId> reads = {62, 191, 193};
  const std::set<AreaId> undone = {1, 64, 126, 129, 200};
  const std::set<AreaId> own_writes = {128};  // initiated by the query's accessor.
  const Rank accessor = 2;

  for (const int shards : {1, 3}) {
    ShardedDetector det(kProcs, /*home=*/0, shards);
    det.register_areas(kAreas);
    std::set<AreaId> stored_v;
    std::set<AreaId> stored_w;
    VectorClock rank1(kProcs);
    for (AreaId id = 0; id < kAreas; ++id) {
      const bool write = writes.count(id) != 0;
      if (!write && reads.count(id) == 0 && undone.count(id) == 0) continue;
      const Rank initiator = own_writes.count(id) != 0 ? accessor : 1;
      rank1.tick(1);
      const LaneSnapshot v = det.lane_snapshot(id, false);
      const LaneSnapshot w = det.lane_snapshot(id, true);
      det.store_access(id, /*owner=*/1, rank1, write || undone.count(id) != 0, initiator,
                       id + 1u);
      if (undone.count(id) != 0) {
        det.restore_lane(id, false, v);
        det.restore_lane(id, true, w);
        continue;
      }
      stored_v.insert(id);
      if (write) stored_w.insert(id);
    }
    EXPECT_EQ(det.resident_clock_bytes(),
              (stored_v.size() + stored_w.size()) * rank1.fixed_wire_size());

    VectorClock issue(kProcs);
    issue[2] = 1000;  // rank 2's event, concurrent with every rank-1 store.
    for (const DetectorMode mode : {DetectorMode::kDualClock, DetectorMode::kSingleClock}) {
      for (const AccessKind kind : {AccessKind::kWrite, AccessKind::kRead}) {
        const bool use_v = mode == DetectorMode::kSingleClock || kind == AccessKind::kWrite;
        const std::set<AreaId>& lane = use_v ? stored_v : stored_w;
        for (AreaId id = 0; id < kAreas; ++id) {
          const core::Verdict one = det.check_one(mode, kind, accessor, issue, id);
          const std::string where = "shards " + std::to_string(shards) + " area " +
                                    std::to_string(id) +
                                    (kind == AccessKind::kWrite ? " write" : " read") +
                                    (use_v ? " vs V" : " vs W");
          EXPECT_EQ(one, core::check_access_oracle(mode, kind, accessor, issue,
                                                   stored_clocks(det, id)))
              << where;
          EXPECT_EQ(one.race, lane.count(id) != 0 && own_writes.count(id) == 0) << where;
        }
      }
    }
  }
}

TEST(ShardedDetector, PristineRestoreReleasesTheLanesClock) {
  // record::Folder undoes a step by restoring the lanes it saved. A lane
  // saved pristine goes back to pristine: its clock storage is released,
  // it reads as the zero clock again and checks like a never-touched
  // area. Inline (n = 4) and pooled (n = 8) clocks alike.
  for (const std::size_t n : {std::size_t{4}, std::size_t{8}}) {
    ShardedDetector det(n, /*home=*/0, /*shards=*/2);
    det.register_areas(10);
    const std::size_t cold_storage = det.storage_bytes();
    const LaneSnapshot v0 = det.lane_snapshot(5, false);
    const LaneSnapshot w0 = det.lane_snapshot(5, true);
    EXPECT_TRUE(v0.clock.empty());

    VectorClock clk(n);
    clk[1] = 3;
    det.store_access(5, /*owner=*/1, clk, /*is_write=*/true, /*accessor=*/1, 9);
    EXPECT_EQ(det.resident_clock_bytes(), 2 * clk.fixed_wire_size());

    // A stored snapshot restores in place and keeps its storage.
    const LaneSnapshot v1 = det.lane_snapshot(5, false);
    VectorClock later = clk;
    later[1] = 4;
    det.store_access(5, 1, later, /*is_write=*/false, /*accessor=*/3, 10);
    det.restore_lane(5, false, v1);
    EXPECT_EQ(det.v_clock(5), clk);
    EXPECT_EQ(det.last_access_event(5), 9u);
    EXPECT_EQ(det.last_access_rank(5), 1);
    EXPECT_EQ(det.resident_clock_bytes(), 2 * clk.fixed_wire_size());

    det.restore_lane(5, false, v0);
    EXPECT_EQ(det.resident_clock_bytes(), clk.fixed_wire_size()) << "n=" << n;
    det.restore_lane(5, true, w0);
    EXPECT_EQ(det.resident_clock_bytes(), 0u) << "n=" << n;
    EXPECT_EQ(det.v_clock(5), VectorClock(n));
    EXPECT_EQ(det.w_clock(5), VectorClock(n));
    EXPECT_EQ(det.v_epoch(5), (clocks::Epoch{0, 0}));
    EXPECT_EQ(det.last_write_rank(5), kInvalidRank);
    EXPECT_EQ(det.storage_bytes(), cold_storage);

    VectorClock issue(n);
    issue[2] = 1;
    for (const AccessKind kind : {AccessKind::kWrite, AccessKind::kRead}) {
      // Area 3 shares area 5's shard and was never touched.
      EXPECT_EQ(det.check_one(DetectorMode::kDualClock, kind, 2, issue, 5),
                det.check_one(DetectorMode::kDualClock, kind, 2, issue, 3))
          << "n=" << n;
    }
  }
}

using ShardedDetectorDeathTest = ::testing::Test;

TEST(ShardedDetectorDeathTest, RestoringAPristineSnapshotWithAStoredEpochOrPriorPanics) {
  // check_one trusts a pristine lane's epoch against the zero clock, so a
  // pristine snapshot carrying a stored epoch or prior must not go back.
  ShardedDetector det(4, /*home=*/0, /*shards=*/2);
  det.register_areas(4);
  const LaneSnapshot pristine = det.lane_snapshot(1, true);
  ASSERT_TRUE(pristine.clock.empty());
  det.restore_lane(1, true, pristine);  // the pristine state itself restores.

  LaneSnapshot epoch_value = pristine;
  epoch_value.epoch_value = 3;
  LaneSnapshot epoch_rank = pristine;
  epoch_rank.epoch_rank = 2;
  LaneSnapshot prior = pristine;
  prior.prior = 1;
  for (const LaneSnapshot& snap : {epoch_value, epoch_rank, prior}) {
    EXPECT_DEATH(det.restore_lane(1, true, snap),
                 "restore_lane of a pristine snapshot with a stored epoch or prior");
  }
}

// ---------------------------------------------------------------------------
// Shard-equivalence on fuzzed programs, sim backend: bit-identical races
// ---------------------------------------------------------------------------

/// A total, bit-exact signature of one run's race reports (order-free).
using RaceSig = std::tuple<Rank, std::uint32_t, Rank, int, std::uint64_t,
                           std::uint64_t, int, std::string, std::string>;

std::string clock_bits(const VectorClock& clock) {
  std::string out;
  for (std::size_t i = 0; i < clock.size(); ++i) {
    out += std::to_string(clock[i]) + ",";
  }
  return out;
}

std::multiset<RaceSig> sim_signature(const fuzz::Program& program, int shards) {
  runtime::WorldConfig config;
  config.nprocs = program.nprocs;
  config.seed = 7;  // one fixed schedule: shards must not perturb it.
  config.detector_shards = shards;
  runtime::World world(config);
  fuzz::spawn_program(world, std::make_shared<const fuzz::Program>(program));
  const auto report = world.run();
  EXPECT_TRUE(report.completed) << report.diagnostic;
  std::multiset<RaceSig> sig;
  for (const auto& r : world.races().reports()) {
    sig.insert(RaceSig{r.home, r.area, r.accessor, static_cast<int>(r.kind),
                       r.event_id, r.prior_event_id, static_cast<int>(r.against),
                       clock_bits(r.accessor_clock), clock_bits(r.stored_clock)});
  }
  return sig;
}

TEST(ShardEquivalence, SimVerdictsBitIdenticalAcrossShardCountsOn128Programs) {
  // The partitioning must be a pure locking concern: the same program on the
  // same schedule yields byte-for-byte the same race reports at 1, 2 and 8
  // shards. 64 seeds × {clean, planted} = 128 generated programs.
  int planted_with_races = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    for (const bool plant : {false, true}) {
      fuzz::GenConfig gen;
      gen.seed = seed;
      gen.nprocs = 4;
      gen.areas = 6;
      gen.phases = 2;
      gen.plant_bug = plant;
      const fuzz::Program program = fuzz::generate_program(gen);

      const auto base = sim_signature(program, 1);
      EXPECT_EQ(sim_signature(program, 2), base)
          << "seed " << seed << (plant ? " planted" : " clean") << ": 2 shards";
      EXPECT_EQ(sim_signature(program, 8), base)
          << "seed " << seed << (plant ? " planted" : " clean") << ": 8 shards";
      if (program.expect == fuzz::Expectation::kClean) {
        EXPECT_TRUE(base.empty()) << "clean seed " << seed;
      }
      if (plant && !base.empty()) ++planted_with_races;
    }
  }
  // The slice is not vacuous: a healthy share of planted programs manifest.
  EXPECT_GT(planted_with_races, 16);
}

// ---------------------------------------------------------------------------
// Shard-equivalence, threaded backend: expectation contract per shard count
// ---------------------------------------------------------------------------

TEST(ShardEquivalence, ThreadedContractHoldsAcrossShardCounts) {
  // Real threads have no fixed schedule, so equivalence is by the verdict
  // contract: kClean programs stay race-free and kRacy programs flag the
  // planted area at every shard count (which also exercises real contention
  // on shard mutexes shared by several areas at shards=1 and 2).
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const bool plant : {false, true}) {
      fuzz::GenConfig gen;
      gen.seed = seed;
      gen.nprocs = 4;
      gen.areas = 6;
      gen.phases = 2;
      gen.plant_bug = plant;
      gen.bug_kind = fuzz::BugKind::kDroppedEdge;  // always kRacy when planted.
      const fuzz::Program program = fuzz::generate_program(gen);
      if (plant && program.expect != fuzz::Expectation::kRacy) continue;

      for (const int shards : {1, 2, 8}) {
        fuzz::ThreadRunOptions options;
        options.shards = shards;
        const auto outcome = fuzz::run_program_threaded(program, options);
        ASSERT_TRUE(outcome.report.completed)
            << "seed " << seed << " shards " << shards;
        if (program.expect == fuzz::Expectation::kClean) {
          EXPECT_EQ(outcome.report.race_count, 0u)
              << "seed " << seed << " shards " << shards;
        } else {
          ASSERT_TRUE(program.planted.has_value());
          const std::string planted_area = fuzz::area_name(program.planted->area);
          EXPECT_TRUE(outcome.racy_areas.count(planted_area) > 0)
              << "seed " << seed << " shards " << shards << ": planted area "
              << planted_area << " not flagged";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Vectorized compare ≡ scalar compare
// ---------------------------------------------------------------------------

TEST(VectorizedCompare, MatchesScalarCompareOnRandomPairs) {
  util::Rng rng(99);
  for (const std::size_t n : {1u, 4u, 16u, 256u, 1024u}) {
    for (int trial = 0; trial < 200; ++trial) {
      VectorClock a(n);
      VectorClock b(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = rng.next() % 4;
        // Bias towards related clocks so all four orderings appear.
        b[i] = rng.next() % 2 == 0 ? a[i] : rng.next() % 4;
      }
      EXPECT_EQ(a.compare_vectorized(b), a.compare(b)) << "n=" << n;
      EXPECT_EQ(b.compare_vectorized(a), b.compare(a)) << "n=" << n;
      EXPECT_EQ(a.compare_vectorized(a), clocks::Ordering::kEqual);
    }
  }
}

// ---------------------------------------------------------------------------
// Delta clock codec (piggyback compression)
// ---------------------------------------------------------------------------

TEST(DeltaCodec, RoundTripsOnRandomPerturbations) {
  util::Rng rng(31);
  for (const std::size_t n : {1u, 4u, 64u, 300u}) {
    for (int trial = 0; trial < 100; ++trial) {
      VectorClock base(n);
      for (std::size_t i = 0; i < n; ++i) base[i] = rng.next() % 1000;
      VectorClock target = base;
      const std::size_t diffs = rng.next() % (n + 1);
      for (std::size_t d = 0; d < diffs; ++d) {
        target[rng.next() % n] = rng.next() % 100000;
      }
      std::vector<std::byte> wire;
      target.encode_delta(base, wire);
      EXPECT_EQ(wire.size(), target.delta_wire_size(base));
      std::size_t offset = 0;
      const VectorClock decoded = VectorClock::decode_delta(base, wire, &offset);
      EXPECT_EQ(offset, wire.size());
      EXPECT_EQ(decoded, target) << "n=" << n << " diffs=" << diffs;
    }
  }
}

TEST(DeltaCodec, EqualAndNearEqualClocksCollapse) {
  VectorClock base(64);
  for (std::size_t i = 0; i < 64; ++i) base[i] = 100 + i;
  // Identical clocks: one tag byte + a zero diff count.
  EXPECT_EQ(base.delta_wire_size(base), 2u);
  // Two diverged components: far below the plain compact encoding.
  VectorClock near = base;
  near[3] += 1;
  near[40] += 7;
  EXPECT_LT(near.delta_wire_size(base), base.wire_size() / 4);
  // Never worse than plain + tag: a fully diverged clock falls back.
  VectorClock far(64);
  for (std::size_t i = 0; i < 64; ++i) far[i] = 100000 + 1000 * i;
  EXPECT_LE(far.delta_wire_size(base), far.wire_size() + 1);
}

}  // namespace
}  // namespace dsmr::detect
