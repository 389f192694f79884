// Unit tests for public memory segments and registered areas.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <thread>

#include "detect/sharded_detector.hpp"
#include "mem/public_segment.hpp"
#include "nic/nic.hpp"
#include "runtime/thread_world.hpp"
#include "runtime/world.hpp"
#include "util/rng.hpp"

namespace dsmr::mem {
namespace {

/// "a<n>", built by appending (GCC 12 misreports `"a" + std::to_string(n)`
/// under -Wrestrict).
std::string area_name(std::uint64_t n) {
  std::string name = "a";
  name += std::to_string(n);
  return name;
}

TEST(PublicSegment, RegisterAndLookup) {
  PublicSegment seg(0, 1024, 4);
  const AreaId a = seg.register_area(0, 64, "a");
  const AreaId b = seg.register_area(64, 32, "b");
  EXPECT_EQ(seg.area_count(), 2u);
  EXPECT_EQ(seg.area(a).name, "a");
  EXPECT_EQ(seg.area(b).offset, 64u);

  Area* found = seg.find_area(10, 4);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->id, a);
  found = seg.find_area(64, 32);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->id, b);
}

TEST(PublicSegment, LookupFailsOutsideAreas) {
  PublicSegment seg(0, 1024, 2);
  seg.register_area(100, 50, "mid");
  EXPECT_EQ(seg.find_area(0, 8), nullptr);     // before.
  EXPECT_EQ(seg.find_area(200, 8), nullptr);   // after.
  EXPECT_EQ(seg.find_area(140, 20), nullptr);  // straddles the end.
}

TEST(PublicSegment, RangeMustFitOneArea) {
  PublicSegment seg(0, 1024, 2);
  seg.register_area(0, 64, "a");
  seg.register_area(64, 64, "b");
  // A range crossing the a/b boundary resolves to no single area: the area
  // is the unit of locking and detection.
  EXPECT_EQ(seg.find_area(60, 8), nullptr);
  EXPECT_NE(seg.find_area(60, 4), nullptr);
}

TEST(PublicSegmentDeath, OverlapIsRejected) {
  PublicSegment seg(0, 1024, 2);
  seg.register_area(0, 64, "a");
  EXPECT_DEATH(seg.register_area(32, 64, "overlap"), "overlaps");
  EXPECT_DEATH(seg.register_area(0, 16, "inside"), "overlaps");
}

TEST(PublicSegmentDeath, OutOfBoundsAreaIsRejected) {
  PublicSegment seg(0, 128, 2);
  EXPECT_DEATH(seg.register_area(100, 64, "late"), "exceeds");
  EXPECT_DEATH(seg.register_area(0, 0, "empty"), "positive size");
}

TEST(PublicSegment, AllocateAreaBumps) {
  PublicSegment seg(0, 256, 2);
  const AreaId a = seg.allocate_area(64, "a");
  const AreaId b = seg.allocate_area(64, "b");
  EXPECT_EQ(seg.area(a).offset, 0u);
  EXPECT_EQ(seg.area(b).offset, 64u);
}

TEST(PublicSegment, AllocateAfterExplicitRegistration) {
  PublicSegment seg(0, 256, 2);
  seg.register_area(32, 32, "explicit");
  const AreaId next = seg.allocate_area(16, "bumped");
  EXPECT_GE(seg.area(next).offset, 64u);
}

TEST(PublicSegment, ReadWriteRoundTrip) {
  PublicSegment seg(0, 64, 2);
  seg.register_area(0, 64, "data");
  std::vector<std::byte> payload = {std::byte{1}, std::byte{2}, std::byte{3}};
  seg.write_bytes(10, payload);
  EXPECT_EQ(seg.read_bytes(10, 3), payload);
  EXPECT_EQ(seg.read_bytes(9, 1)[0], std::byte{0});
}

TEST(PublicSegmentDeath, OnlyTheRegisteredExtentIsMaterialized) {
  // A 1 MiB segment holding one 64-byte area zero-fills those 64 bytes and
  // nothing past them: size() is the capacity, byte access stops at the
  // highest registered end.
  PublicSegment seg(0, 1 << 20, 2);
  EXPECT_EQ(seg.size(), 1u << 20);
  seg.register_area(0, 64, "only");
  EXPECT_EQ(seg.read_bytes(0, 64), std::vector<std::byte>(64, std::byte{0}));
  const std::byte* base = seg.bytes(0, 64).data();
  EXPECT_DEATH(seg.read_bytes(64, 1), "registered extent");
  EXPECT_DEATH(seg.bytes(60, 8), "registered extent");
  // Growing the extent keeps earlier spans valid: the capacity was reserved.
  seg.register_area(1 << 19, 64, "far");
  EXPECT_EQ(seg.bytes(0, 64).data(), base);
  EXPECT_EQ(seg.read_bytes((1 << 19) + 32, 32), std::vector<std::byte>(32, std::byte{0}));
}

TEST(DetectorState, AreasCarryClocksSizedToProcessCount) {
  // Detection state moved out of mem::Area into detect::ShardedDetector
  // (keyed by the same dense AreaId); the invariants carried over.
  detect::ShardedDetector det(8, /*home=*/1, /*shards=*/1);
  det.register_area(0);
  EXPECT_EQ(det.v_clock(0).size(), 8u);
  EXPECT_EQ(det.w_clock(0).size(), 8u);
  EXPECT_TRUE(det.v_clock(0).is_zero());
  // Fresh areas are epoch-summarized: both lanes witness the home's
  // fictitious 0th event.
  EXPECT_TRUE(det.v_epoch(0).valid());
  EXPECT_EQ(det.v_epoch(0), (clocks::Epoch{1, 0}));
}

TEST(DetectorState, ClockBytesAccounting) {
  // §V.A: storage overhead = 2 clock states per area, charged at the
  // compact encoding (n varints) plus the epoch witness while summarized —
  // strictly below the fixed 2 × n × 8 bytes the paper counts.
  detect::ShardedDetector det(10, /*home=*/0, /*shards=*/1);
  det.register_areas(2);
  const std::size_t per_state = det.v_storage_bytes(0);
  EXPECT_EQ(per_state, 10u + (clocks::Epoch{0, 0}).wire_size());
  EXPECT_EQ(det.storage_bytes(), 2u * 2u * per_state);
  EXPECT_LT(det.storage_bytes(), 2u * 2u * 10u * sizeof(ClockValue));
  // Cold areas hold pristine (empty) clocks that read as zero: no clock
  // storage is materialized until an access is actually stored.
  EXPECT_EQ(det.resident_clock_bytes(), 0u);
}

TEST(PublicSegment, AdjacentAreasShareBoundariesExactly) {
  // The fuzzer bump-allocates areas back to back: the interval index must
  // resolve every boundary byte to exactly one owner and reject straddles.
  PublicSegment seg(0, 256, 4);
  const AreaId a = seg.register_area(0, 64, "a");
  const AreaId b = seg.register_area(64, 64, "b");
  const AreaId c = seg.register_area(128, 32, "c");

  // First and last byte of each area.
  EXPECT_EQ(seg.find_area(0, 1)->id, a);
  EXPECT_EQ(seg.find_area(63, 1)->id, a);
  EXPECT_EQ(seg.find_area(64, 1)->id, b);
  EXPECT_EQ(seg.find_area(127, 1)->id, b);
  EXPECT_EQ(seg.find_area(128, 1)->id, c);
  EXPECT_EQ(seg.find_area(159, 1)->id, c);
  // Whole-area lookups at exact bounds.
  EXPECT_EQ(seg.find_area(64, 64)->id, b);
  // One past the last registered byte.
  EXPECT_EQ(seg.find_area(160, 1), nullptr);
  // Ranges straddling each adjacency.
  EXPECT_EQ(seg.find_area(63, 2), nullptr);
  EXPECT_EQ(seg.find_area(127, 2), nullptr);
  EXPECT_EQ(seg.find_area(0, 129), nullptr);
}

TEST(PublicSegment, RegistrationFillsGapsExactly) {
  PublicSegment seg(0, 256, 2);
  seg.register_area(0, 32, "low");
  seg.register_area(64, 32, "high");
  // An area exactly filling the hole is legal; off-by-one overlaps are not.
  const AreaId mid = seg.register_area(32, 32, "mid");
  EXPECT_EQ(seg.find_area(32, 32)->id, mid);
  EXPECT_EQ(seg.find_area(31, 2), nullptr);  // still two areas.
}

TEST(PublicSegmentDeath, GapFillOverlapsAreRejectedOnBothSides) {
  PublicSegment seg(0, 256, 2);
  seg.register_area(0, 32, "low");
  seg.register_area(64, 32, "high");
  EXPECT_DEATH(seg.register_area(31, 32, "hits-low"), "overlaps");
  EXPECT_DEATH(seg.register_area(33, 32, "hits-high"), "overlaps");
}

TEST(NicResolve, StaysCorrectAcrossNewRegistrations) {
  // Nic::resolve is now a direct delegation to the shared amortized index
  // (the old thread-local one-entry cache is gone). Registering *new* areas
  // between lookups must never stale an earlier answer or mask a new area —
  // exactly the access pattern of the fuzzer's incremental allocations —
  // and returned pointers must stay stable across registrations.
  runtime::WorldConfig config;
  config.nprocs = 2;
  runtime::World world(config);
  nic::Nic& nic = world.nic(0);

  const auto a = world.alloc(0, 64, "a");
  const Area* area_a = nic.resolve(0, a.offset, 8);
  ASSERT_NE(area_a, nullptr);
  EXPECT_EQ(area_a->name, "a");
  // Contained sub-range of the same area resolves to the same object.
  EXPECT_EQ(nic.resolve(0, a.offset + 32, 8), area_a);

  // New adjacent registration between lookups.
  const auto b = world.alloc(0, 32, "b");
  const Area* area_b = nic.resolve(0, b.offset, 32);
  ASSERT_NE(area_b, nullptr);
  EXPECT_EQ(area_b->name, "b");
  // A range straddling the a/b adjacency resolves to no area even though
  // "b" abuts it.
  EXPECT_EQ(nic.resolve(0, a.offset + 60, 8), nullptr);
  // The earlier pointer is still stable and still served.
  EXPECT_EQ(nic.resolve(0, a.offset, 64), area_a);

  // Cross-rank queries interleaved with rank-0 lookups stay exact.
  const auto remote = world.alloc(1, 16, "remote");
  const Area* area_remote = nic.resolve(1, remote.offset, 16);
  ASSERT_NE(area_remote, nullptr);
  EXPECT_EQ(area_remote->name, "remote");
  EXPECT_EQ(nic.resolve(0, b.offset, 8), area_b);
}

TEST(PublicSegment, OutOfOrderRegistrationKeepsLookupExact) {
  // The index keeps a sorted prefix plus a small unsorted tail that is
  // periodically merged (amortized insertion). Registering areas in a
  // shuffled order — enough of them to force several tail flushes — must
  // leave every lookup exact.
  PublicSegment seg(0, 8192, 2);
  std::vector<std::uint32_t> offsets;
  for (std::uint32_t i = 0; i < 200; ++i) offsets.push_back(i * 32);
  std::mt19937 rng(7);
  std::shuffle(offsets.begin(), offsets.end(), rng);
  for (const std::uint32_t offset : offsets) {
    seg.register_area(offset, 32, area_name(offset));
  }
  EXPECT_EQ(seg.area_count(), 200u);
  for (std::uint32_t i = 0; i < 200; ++i) {
    const Area* found = seg.find_area(i * 32, 32);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->offset, i * 32);
    // Straddles across every adjacency are still rejected.
    if (i + 1 < 200) {
      EXPECT_EQ(seg.find_area(i * 32 + 16, 32), nullptr);
    }
  }
}

TEST(PublicSegmentDeath, OverlapWithUnflushedTailIsRejected) {
  // Overlap rejection must see areas still sitting in the unsorted tail,
  // not just the sorted prefix.
  PublicSegment seg(0, 1024, 2);
  seg.register_area(64, 32, "prefix");
  seg.register_area(0, 32, "tail");  // below the prefix: lands in the tail.
  EXPECT_DEATH(seg.register_area(16, 32, "hits-tail"), "overlaps");
}

/// A segment plus a byte → owner map, the brute-force reference for
/// find_area: [offset, offset+len) resolves iff one area owns every byte.
struct Layout {
  explicit Layout(std::uint32_t size) : seg(0, size, 2), owner(size, -1) {}

  bool free(std::uint32_t offset, std::uint32_t size) const {
    if (std::uint64_t{offset} + size > owner.size()) return false;
    return std::all_of(owner.begin() + offset, owner.begin() + offset + size,
                       [](std::int64_t o) { return o < 0; });
  }
  /// Registers [offset, offset+size) when every byte of it is free.
  void add(std::uint32_t offset, std::uint32_t size) {
    if (!free(offset, size)) return;
    claim(seg.register_area(offset, size, area_name(seg.area_count())));
  }
  void claim(AreaId id) {
    const Area& area = seg.area(id);
    if (area.offset < bump) ++below_bump;
    std::fill(owner.begin() + area.offset, owner.begin() + area.end(), id);
    bump = std::max(bump, area.end());
  }
  const Area* expected(std::uint32_t offset, std::uint32_t len) const {
    if (len == 0 || std::uint64_t{offset} + len > owner.size()) return nullptr;
    const std::int64_t first = owner[offset];
    if (first < 0 || owner[offset + len - 1] != first) return nullptr;
    return &seg.area(static_cast<AreaId>(first));
  }

  PublicSegment seg;
  std::vector<std::int64_t> owner;
  std::uint32_t bump = 0;  ///< highest registered end.
  int below_bump = 0;      ///< registrations that went to the unsorted tail.
};

/// Registers a random mix: bump areas, areas past a gap, runs of 1-byte
/// areas packed into one granule, and arbitrary-offset areas (usually below
/// the highest end: these land in the unsorted tail and force flushes).
void grow(Layout& layout, util::Rng& rng, int registrations) {
  const auto size = static_cast<std::uint32_t>(layout.owner.size());
  for (int i = 0; i < registrations; ++i) {
    switch (rng.below(5)) {
      case 0:  // bump allocation: the next area starts at the highest end
        layout.add(layout.bump, static_cast<std::uint32_t>(1 + rng.below(200)));
        break;
      case 1:  // a gap, then an area
        layout.add(layout.bump + 1 + static_cast<std::uint32_t>(rng.below(300)),
                   static_cast<std::uint32_t>(1 + rng.below(100)));
        break;
      case 2: {  // 1-byte areas, several to a granule
        const std::uint64_t n = 2 + rng.below(6);
        for (std::uint64_t k = 0; k < n; ++k) {
          layout.add(layout.bump + static_cast<std::uint32_t>(rng.below(3)), 1);
        }
        break;
      }
      default:  // arbitrary offset
        layout.add(static_cast<std::uint32_t>(rng.below(size)),
                   static_cast<std::uint32_t>(1 + rng.below(rng.chance(0.5) ? 4 : 150)));
        break;
    }
  }
}

/// Compares find_area with the reference on random ranges: hits, misses in
/// gaps, ranges straddling area boundaries, and offsets past the end.
void expect_lookups_match(Layout& layout, util::Rng& rng, int queries) {
  const auto size = static_cast<std::uint32_t>(layout.owner.size());
  for (int q = 0; q < queries; ++q) {
    const auto offset = static_cast<std::uint32_t>(rng.below(size + 256));
    const auto len = static_cast<std::uint32_t>(1 + rng.below(rng.chance(0.5) ? 8 : 300));
    ASSERT_EQ(layout.seg.find_area(offset, len), layout.expected(offset, len))
        << "find_area(" << offset << ", " << len << ") over " << layout.seg.area_count()
        << " areas";
  }
  // Every area resolves from its first and last byte, and as a whole.
  for (AreaId id = 0; id < layout.seg.area_count(); ++id) {
    const Area& area = layout.seg.area(id);
    ASSERT_EQ(layout.seg.find_area(area.offset, area.size), &area);
    ASSERT_EQ(layout.seg.find_area(area.end() - 1, 1), &area);
  }
}

TEST(PublicSegment, FindAreaMatchesBruteForceOverMixedLayouts) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    util::Rng rng(seed);
    Layout layout(static_cast<std::uint32_t>(32768 + rng.below(32768)));
    // Lookups interleave with registrations, as the sim's incremental
    // allocations do; the arbitrary-offset registrations fill and flush
    // the tail several times over.
    for (int round = 0; round < 8; ++round) {
      grow(layout, rng, 40);
      expect_lookups_match(layout, rng, 400);
      if (HasFatalFailure()) return;
    }
    // More tail registrations than the tail holds: at least one flush.
    EXPECT_GT(layout.below_bump, 64) << "seed " << seed;
  }
}

/// The id lookup's reference: a linear scan of every registered area for
/// one that holds [offset, offset+len).
AreaId scan_for_area(const PublicSegment& seg, std::uint32_t offset, std::uint32_t len) {
  for (AreaId id = 0; id < seg.area_count(); ++id) {
    const Area& area = seg.area(id);
    if (area.offset <= offset && std::uint64_t{offset} + len <= area.end()) return id;
  }
  return kNoArea;
}

/// Checks find_area_id against the linear scan, and find_area against
/// &area(id) or nullptr, for one range.
void expect_id_lookup(Layout& layout, std::uint32_t offset, std::uint32_t len) {
  const AreaId id = layout.seg.find_area_id(offset, len);
  ASSERT_EQ(id, scan_for_area(layout.seg, offset, len))
      << "find_area_id(" << offset << ", " << len << ") over " << layout.seg.area_count()
      << " areas";
  ASSERT_EQ(layout.seg.find_area(offset, len),
            id == kNoArea ? nullptr : &layout.seg.area(id));
}

TEST(PublicSegment, FindAreaIdMatchesALinearScanOverRandomLayouts) {
  // Layouts mix areas below and above the 64-byte granule, areas spanning
  // several granules at unaligned offsets, gaps, packed 1-byte areas, and
  // registrations below the highest end that sit in the unsorted tail or
  // have been merged from it. Queries hit inside areas, straddle from an
  // area into its neighbour or the gap after it, and miss in gaps.
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    util::Rng rng(seed);
    const auto size = static_cast<std::uint32_t>(8192 + rng.below(8192));
    Layout layout(size);
    for (int round = 0; round < 6; ++round) {
      grow(layout, rng, 30);
      for (int k = 0; k < 4; ++k) {  // large areas anywhere: multi-granule, often tail
        layout.add(static_cast<std::uint32_t>(rng.below(size)),
                   static_cast<std::uint32_t>(64 + rng.below(400)));
      }
      for (int q = 0; q < 200; ++q) {
        expect_id_lookup(layout, static_cast<std::uint32_t>(rng.below(size + 128)),
                         static_cast<std::uint32_t>(1 + rng.below(rng.chance(0.5) ? 8 : 200)));
        if (HasFatalFailure()) return;
      }
      for (AreaId id = 0; id < layout.seg.area_count(); ++id) {
        const Area area = layout.seg.area(id);
        const auto inner = static_cast<std::uint32_t>(rng.below(area.size));
        // A sub-range, the whole area, and a range leaving it by 1..8 bytes.
        expect_id_lookup(layout, area.offset + inner,
                         1 + static_cast<std::uint32_t>(rng.below(area.size - inner)));
        expect_id_lookup(layout, area.offset, area.size);
        expect_id_lookup(layout, area.offset + inner,
                         area.size - inner + 1 + static_cast<std::uint32_t>(rng.below(8)));
        if (HasFatalFailure()) return;
      }
    }
    EXPECT_GT(layout.below_bump, 0) << "seed " << seed;
  }
}

TEST(PublicSegment, ConcurrentLookupsAreExact) {
  // Once registrations stop, find_area and find_area_id are read-only: four
  // threads resolving at once (the ThreadWorld shape) must each see the
  // single-threaded answers. Some areas stay in the unsorted tail, so that
  // path runs too.
  util::Rng rng(77);
  Layout layout(16384);
  grow(layout, rng, 300);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> queries;
  std::vector<const Area*> answers;
  for (int q = 0; q < 2000; ++q) {
    const auto offset = static_cast<std::uint32_t>(rng.below(16384 + 64));
    const auto len = static_cast<std::uint32_t>(1 + rng.below(64));
    queries.emplace_back(offset, len);
    answers.push_back(layout.expected(offset, len));
  }
  std::vector<int> wrong(4, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int pass = 0; pass < 20; ++pass) {
        for (std::size_t q = 0; q < queries.size(); ++q) {
          const std::size_t i = (q + static_cast<std::size_t>(t) * 500) % queries.size();
          const auto [offset, len] = queries[i];
          const AreaId id = layout.seg.find_area_id(offset, len);
          const Area* area = layout.seg.find_area(offset, len);
          if (area != answers[i] || (area == nullptr ? id != kNoArea : id != area->id)) {
            ++wrong[static_cast<std::size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(wrong[static_cast<std::size_t>(t)], 0) << "thread " << t;
}

TEST(PublicSegment, IndexGrowsWithRegisteredBytesNotSegmentSize) {
  // 64 KB registered in a 16 MB segment: the granule table covers the
  // registered extent only (16 bytes per 64 bytes of the whole segment
  // would be 4 MB here).
  PublicSegment seg(0, 16u << 20, 2);
  for (int i = 0; i < 1000; ++i) seg.allocate_area(64, area_name(static_cast<std::uint64_t>(i)));
  EXPECT_LT(seg.index_bytes(), 64u * 1024u);
  EXPECT_EQ(seg.find_area(999 * 64, 64)->id, 999u);
  EXPECT_EQ(seg.find_area(1000 * 64, 1), nullptr);
}

TEST(ThreadWorldDeath, AccessToUnregisteredRangeFails) {
  // The threaded ops resolve by id; a miss must still be a diagnostic, not
  // an out-of-range lane index.
  runtime::ThreadWorldConfig config;
  config.nprocs = 2;
  runtime::ThreadWorld world(config);
  const GlobalAddress a = world.alloc(1, 64, "a");
  world.alloc(1, 32, "b");
  runtime::ThreadProcess& p = world.process(0);
  const std::vector<std::byte> payload(8);
  EXPECT_DEATH(p.put(a.plus(96), payload), "access to unregistered range P1\\+96\\+8");
  EXPECT_DEATH(p.put(a.plus(60), payload), "access to unregistered range");  // a into b.
  EXPECT_DEATH((void)p.get(a.plus(90), 8), "access to unregistered range");  // b past its end.
  EXPECT_DEATH(p.lock(a.plus(4096)), "access to unregistered range");
}

TEST(GlobalAddress, PlusAndToString) {
  const GlobalAddress addr{3, 100};
  EXPECT_EQ(addr.plus(28).offset, 128u);
  EXPECT_EQ(addr.plus(28).rank, 3);
  EXPECT_EQ(addr.to_string(), "P3+100");
}

}  // namespace
}  // namespace dsmr::mem
