// One processor's public memory: the remotely accessible part of the global
// address space (paper §III.A, Fig. 1).
//
// Shared data must be *registered* as an area before remote access — the
// analogue of RDMA memory registration. The segment owns the *addressing*
// facts only: offsets, sizes, names, and the offset→area index. The
// detection state the paper attaches to "each shared piece of data" (§IV.B,
// §V.A — the V/W clocks, epoch witnesses, prior event identities) lives in
// detect::ShardedDetector, keyed by the same dense AreaId this segment
// assigns; the two registries grow in lockstep through the runtime's alloc
// paths.
//
// Area lookup is the single hottest metadata operation (every one-sided
// access resolves its target area), so it is O(1) and returns the dense
// AreaId straight from the index: a sorted index of {offset, end, id}
// entries plus a granule table holding, for every 64-byte granule of the
// registered extent [0, highest end), a copy of the first index entry whose
// area ends past that granule's start, and that entry's index position. A
// lookup whose target is its granule's first area (every lookup into areas
// of 64 bytes or more that start on a granule boundary) is one table load;
// any other lookup scans forward from that position over the few areas that
// end inside the granule. No Area is touched: find_area_id never reads one,
// and find_area reads only the one it returns. The table costs one 16-byte
// entry per 64 registered bytes, however large the segment.
//
// Insertion is amortized: bump-allocated areas (the production path —
// monotonically increasing offsets) append to the index and extend the
// table in O(size / 64); arbitrary-offset registrations go to a bounded
// unsorted tail, linearly scanned by lookups, that is merged (sort +
// inplace_merge, then a table rebuild) only when it fills. Areas live in a
// deque so `Area*` stays stable across registrations.
//
// Byte storage is materialized with the registrations, not the segment:
// construction reserves the whole capacity without touching it, and
// register_area zero-fills up to the highest registered end. The buffer
// never reallocates, so spans into it stay valid, and a world whose
// programs register a few hundred bytes no longer pays for zeroing a
// megabyte per rank.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace dsmr::mem {

using AreaId = std::uint32_t;

/// find_area_id's answer when no single registered area holds the range.
inline constexpr AreaId kNoArea = ~AreaId{0};

/// A registered shared area: addressing and identity only. Detection
/// metadata for the area lives in detect::ShardedDetector under this id.
struct Area {
  AreaId id = 0;
  std::uint32_t offset = 0;  ///< start within the public segment.
  std::uint32_t size = 0;
  std::string name;          ///< diagnostic label used in race reports.

  std::uint32_t end() const { return offset + size; }
};

class PublicSegment {
 public:
  /// A segment of `size` bytes on `home`, in a system of `nprocs` processes
  /// (clock width).
  PublicSegment(Rank home, std::uint32_t size, std::size_t nprocs);

  Rank home() const { return home_; }
  /// The segment's capacity: the bound registrations must fit in.
  std::uint32_t size() const { return capacity_; }
  std::size_t nprocs() const { return nprocs_; }

  /// Registers [offset, offset+size) as a shared area. Areas must not
  /// overlap: an area is the unit of locking and of race detection.
  AreaId register_area(std::uint32_t offset, std::uint32_t size, std::string name);

  /// Registers the next free region (bump allocation); the common path used
  /// by World::alloc_public. O(1) amortized — appends to the sorted prefix.
  AreaId allocate_area(std::uint32_t size, std::string name);

  Area& area(AreaId id);
  const Area& area(AreaId id) const;
  std::size_t area_count() const { return areas_.size(); }

  /// The id of the area containing [offset, offset+len), or kNoArea if the
  /// range is unregistered or straddles an area boundary. A zero-length
  /// range resolves like the byte at `offset`. Read-only and safe to call
  /// concurrently once registrations have quiesced.
  AreaId find_area_id(std::uint32_t offset, std::uint32_t len) const {
    const std::uint64_t last = std::uint64_t{offset} + (len == 0 ? 1 : len);
    const std::size_t granule = offset >> kGranuleShift;
    if (granule < granules_.size()) {
      const IndexEntry& first = granules_[granule].first;
      if (first.offset <= offset && last <= first.end) return first.id;
    }
    return find_area_id_scan(offset, last);
  }

  /// &area(find_area_id(offset, len)), or nullptr on kNoArea. Pointers stay
  /// valid for the segment's lifetime (areas are never deregistered).
  Area* find_area(std::uint32_t offset, std::uint32_t len) {
    const AreaId id = find_area_id(offset, len);
    return id == kNoArea ? nullptr : &areas_[id];
  }

  /// Bytes held by the lookup index (sorted entries, tail and granule
  /// table): grows with the registered extent, not with size().
  std::size_t index_bytes() const;

  /// Raw byte access, bounds-checked against the materialized extent
  /// (the highest registered area end).
  std::span<std::byte> bytes(std::uint32_t offset, std::uint32_t len);
  std::span<const std::byte> bytes(std::uint32_t offset, std::uint32_t len) const;

  void write_bytes(std::uint32_t offset, std::span<const std::byte> data);
  std::vector<std::byte> read_bytes(std::uint32_t offset, std::uint32_t len) const;

 private:
  struct IndexEntry {
    std::uint32_t offset;
    std::uint32_t end;  ///< offset + size: a miss never reads the Area.
    AreaId id;
  };

  /// Arbitrary-offset registrations buffer here until the tail fills, then
  /// merge into the sorted prefix — O(kMaxTail) worst-case lookup overhead,
  /// amortized insertion instead of an O(n) vector::insert per area.
  static constexpr std::size_t kMaxTail = 64;
  static constexpr std::uint32_t kGranuleShift = 6;  ///< 64-byte granules.

  /// One 64-byte granule: the first sorted entry whose area ends past the
  /// granule's start, by value (the lookup's one load) and by position
  /// (where the scan past it starts).
  struct Granule {
    IndexEntry first;
    std::uint32_t pos;
  };

  /// find_area_id past its granule's first area: the forward scan over the
  /// sorted prefix, then the tail. `last` is the range's end (> offset).
  AreaId find_area_id_scan(std::uint32_t offset, std::uint64_t last) const;
  void flush_tail();
  /// Extends the granule table over sorted entries [from, end).
  void index_granules(std::size_t from);

  Rank home_;
  std::size_t nprocs_;
  std::uint32_t capacity_;
  std::vector<std::byte> bytes_;  ///< reserved to capacity_; sized to the extent.
  std::deque<Area> areas_;              ///< deque: stable Area* across growth.
  std::vector<IndexEntry> by_offset_;   ///< sorted prefix.
  /// granule g → the first by_offset_ entry whose area ends past g * 64;
  /// covers the granules below the prefix's highest end.
  std::vector<Granule> granules_;
  std::vector<IndexEntry> tail_;        ///< unsorted tail; linearly scanned.
  std::uint32_t bump_ = 0;
};

}  // namespace dsmr::mem
