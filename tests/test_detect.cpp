// The sharded detector core: batch ≡ per-area verdict equivalence, shard
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
  // clocks (every cold slot aliases the shared zero clock), and a batched
  // check over the whole range must collapse to one run per shard.
  constexpr std::size_t kAreas = 1'000'000;
  ShardedDetector det(4, /*home=*/0, /*shards=*/8);
  det.register_areas(kAreas);
  EXPECT_EQ(det.area_count(), kAreas);
  EXPECT_EQ(det.resident_clock_bytes(), 0u);

  VectorClock issue(4);
  issue[2] = 1;  // rank 2's first event.
  const BatchVerdict batch = det.check_range(
      DetectorMode::kDualClock, AccessKind::kWrite, 2, issue,
      AreaSpan{0, static_cast<std::uint32_t>(kAreas)});
  EXPECT_EQ(batch.checked, kAreas);
  EXPECT_EQ(batch.races, 0u);
  EXPECT_EQ(batch.runs, 8u);  // all state-identical within each shard.
  EXPECT_EQ(batch.epoch_compares + batch.full_compares, batch.runs);
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
// Batch ≡ per-area ≡ legacy check_access
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

TEST(ShardedDetector, BatchVerdictsMatchPerAreaChecksAtEveryShardCount) {
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
      const auto first = static_cast<AreaId>(rng.next() % kAreas);
      const auto count =
          static_cast<std::uint32_t>(rng.next() % (kAreas - first) + 1);

      // Reference: per-area checks through both the detector's scalar entry
      // point and the legacy check_access shim over reconstructed state.
      std::vector<AreaId> expected_races;
      std::uint64_t expected_race_count = 0;
      for (AreaId id = first; id < first + count; ++id) {
        const core::Verdict one = det.check_one(mode, kind, accessor, issue, id);
        const core::StoredClocks stored{det.v_clock(id),          det.w_clock(id),
                                        det.last_access_rank(id), det.last_write_rank(id),
                                        det.v_epoch(id),          det.w_epoch(id)};
        EXPECT_EQ(one, core::check_access(mode, kind, accessor, issue, stored))
            << "area " << id << " shards " << shards;
        if (one.race) {
          expected_races.push_back(id);
          ++expected_race_count;
        }
      }

      std::vector<AreaId> batch_races;
      const BatchVerdict batch =
          det.check_range(mode, kind, accessor, issue, AreaSpan{first, count},
                          [&](AreaId id, const core::Verdict& v) {
                            EXPECT_TRUE(v.race);
                            batch_races.push_back(id);
                          });
      std::sort(batch_races.begin(), batch_races.end());
      EXPECT_EQ(batch_races, expected_races) << "shards " << shards;
      EXPECT_EQ(batch.races, expected_race_count);
      EXPECT_EQ(batch.checked, count);
      EXPECT_LE(batch.runs, count);
      EXPECT_EQ(batch.epoch_compares + batch.full_compares, batch.runs);
    }
  }
}

TEST(ShardedDetector, StoreRangeMatchesPerAreaStores) {
  constexpr std::size_t kProcs = 3;
  ShardedDetector ranged(kProcs, 0, 4);
  ShardedDetector scalar(kProcs, 0, 4);
  ranged.register_areas(32);
  scalar.register_areas(32);
  VectorClock clk(kProcs);
  clk[2] = 3;
  clk[0] = 1;
  ranged.store_range(AreaSpan{5, 20}, /*owner=*/2, clk, /*is_write=*/true,
                     /*accessor=*/2, 77);
  for (AreaId id = 5; id < 25; ++id) {
    scalar.store_access(id, 2, clk, true, 2, 77);
  }
  for (AreaId id = 0; id < 32; ++id) {
    EXPECT_EQ(ranged.v_clock(id), scalar.v_clock(id)) << id;
    EXPECT_EQ(ranged.w_clock(id), scalar.w_clock(id)) << id;
    EXPECT_EQ(ranged.v_epoch(id), scalar.v_epoch(id)) << id;
    EXPECT_EQ(ranged.last_write_event(id), scalar.last_write_event(id)) << id;
  }
  EXPECT_EQ(ranged.storage_bytes(), scalar.storage_bytes());
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
          const std::string planted_area = "fz" + std::to_string(program.planted->area);
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
