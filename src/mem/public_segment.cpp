#include "mem/public_segment.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace dsmr::mem {

PublicSegment::PublicSegment(Rank home, std::uint32_t size, std::size_t nprocs)
    : home_(home), nprocs_(nprocs), capacity_(size) {
  DSMR_REQUIRE(nprocs > 0, "segment needs a positive process count");
  bytes_.reserve(size);
}

AreaId PublicSegment::register_area(std::uint32_t offset, std::uint32_t size,
                                    std::string name) {
  DSMR_REQUIRE(size > 0, "area '" << name << "' must have positive size");
  DSMR_REQUIRE(std::uint64_t{offset} + size <= capacity_,
               "area '" << name << "' [" << offset << "," << offset + size
                        << ") exceeds segment of " << capacity_ << " bytes");
  // Overlap check against neighbours in the sorted prefix, then against
  // every entry of the (bounded) unsorted tail. Rejection stays immediate —
  // an overlapping registration must die here, not at some later flush.
  const auto next = std::lower_bound(
      by_offset_.begin(), by_offset_.end(), offset,
      [](const IndexEntry& e, std::uint32_t o) { return e.offset < o; });
  if (next != by_offset_.end()) {
    DSMR_REQUIRE(offset + size <= next->offset,
                 "area '" << name << "' overlaps area '" << areas_[next->id].name << "'");
  }
  if (next != by_offset_.begin()) {
    const auto prev = std::prev(next);
    DSMR_REQUIRE(prev->end <= offset,
                 "area '" << name << "' overlaps area '" << areas_[prev->id].name << "'");
  }
  for (const IndexEntry& entry : tail_) {
    DSMR_REQUIRE(offset + size <= entry.offset || entry.end <= offset,
                 "area '" << name << "' overlaps area '" << areas_[entry.id].name << "'");
  }

  const auto id = static_cast<AreaId>(areas_.size());
  Area area;
  area.id = id;
  area.offset = offset;
  area.size = size;
  area.name = std::move(name);
  areas_.push_back(std::move(area));
  const IndexEntry entry{offset, offset + size, id};
  if (tail_.empty() && (by_offset_.empty() || by_offset_.back().offset < offset)) {
    // The bump-allocation path: offsets arrive in increasing order, so the
    // sorted prefix grows by plain append and the table by this area's
    // granules.
    by_offset_.push_back(entry);
    index_granules(by_offset_.size() - 1);
  } else {
    tail_.push_back(entry);
    if (tail_.size() >= kMaxTail) flush_tail();
  }
  bump_ = std::max(bump_, offset + size);
  if (bump_ > bytes_.size()) bytes_.resize(bump_);  // within the reservation.
  return id;
}

void PublicSegment::flush_tail() {
  std::sort(tail_.begin(), tail_.end(),
            [](const IndexEntry& a, const IndexEntry& b) { return a.offset < b.offset; });
  const std::size_t middle = by_offset_.size();
  by_offset_.insert(by_offset_.end(), tail_.begin(), tail_.end());
  std::inplace_merge(
      by_offset_.begin(), by_offset_.begin() + static_cast<std::ptrdiff_t>(middle),
      by_offset_.end(),
      [](const IndexEntry& a, const IndexEntry& b) { return a.offset < b.offset; });
  tail_.clear();
  granules_.clear();
  index_granules(0);
}

void PublicSegment::index_granules(std::size_t from) {
  // Areas are disjoint, so sorted starts mean sorted ends: each granule's
  // first area ending past it is the first entry reached whose end does.
  for (std::size_t i = from; i < by_offset_.size(); ++i) {
    const IndexEntry& entry = by_offset_[i];
    while ((std::uint64_t{granules_.size()} << kGranuleShift) < entry.end) {
      granules_.push_back(Granule{entry, static_cast<std::uint32_t>(i)});
    }
  }
}

AreaId PublicSegment::allocate_area(std::uint32_t size, std::string name) {
  return register_area(bump_, size, std::move(name));
}

Area& PublicSegment::area(AreaId id) {
  DSMR_CHECK_MSG(id < areas_.size(), "area id " << id << " out of range");
  return areas_[id];
}

const Area& PublicSegment::area(AreaId id) const {
  DSMR_CHECK_MSG(id < areas_.size(), "area id " << id << " out of range");
  return areas_[id];
}

AreaId PublicSegment::find_area_id_scan(std::uint32_t offset, std::uint64_t last) const {
  // Every prefix entry before the granule's first one ends at or below the
  // granule start, so the forward scan stops one past the last area that
  // starts at or below `offset` — the only prefix area that can hold it.
  const std::size_t granule = offset >> kGranuleShift;
  std::size_t i = granule < granules_.size() ? granules_[granule].pos : by_offset_.size();
  while (i < by_offset_.size() && by_offset_[i].offset <= offset) ++i;
  if (i > 0 && last <= by_offset_[i - 1].end) return by_offset_[i - 1].id;
  for (const IndexEntry& entry : tail_) {
    if (offset >= entry.offset && last <= entry.end) return entry.id;
  }
  return kNoArea;
}

std::size_t PublicSegment::index_bytes() const {
  return (by_offset_.capacity() + tail_.capacity()) * sizeof(IndexEntry) +
         granules_.capacity() * sizeof(Granule);
}

std::span<std::byte> PublicSegment::bytes(std::uint32_t offset, std::uint32_t len) {
  DSMR_REQUIRE(std::uint64_t{offset} + len <= bytes_.size(),
               "byte range out of the registered extent");
  return {bytes_.data() + offset, len};
}

std::span<const std::byte> PublicSegment::bytes(std::uint32_t offset,
                                                std::uint32_t len) const {
  DSMR_REQUIRE(std::uint64_t{offset} + len <= bytes_.size(),
               "byte range out of the registered extent");
  return {bytes_.data() + offset, len};
}

void PublicSegment::write_bytes(std::uint32_t offset, std::span<const std::byte> data) {
  auto dst = bytes(offset, static_cast<std::uint32_t>(data.size()));
  std::copy(data.begin(), data.end(), dst.begin());
}

std::vector<std::byte> PublicSegment::read_bytes(std::uint32_t offset,
                                                 std::uint32_t len) const {
  auto src = bytes(offset, len);
  return {src.begin(), src.end()};
}

}  // namespace dsmr::mem
