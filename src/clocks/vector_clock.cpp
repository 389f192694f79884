#include "clocks/vector_clock.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "util/assert.hpp"

namespace dsmr::clocks {

void VectorClock::merge_from(const VectorClock& other) {
  DSMR_CHECK_MSG(other.size() == size(),
                 "merging clocks of different sizes: " << size() << " vs " << other.size());
  ClockValue* mine = data();
  const ClockValue* theirs = other.data();
  for (std::size_t i = 0; i < size_; ++i) {
    mine[i] = std::max(mine[i], theirs[i]);
  }
}

bool VectorClock::dominated_by(const VectorClock& other) const {
  DSMR_CHECK_MSG(other.size() == size(),
                 "comparing clocks of different sizes: " << size() << " vs " << other.size());
  const ClockValue* mine = data();
  const ClockValue* theirs = other.data();
  for (std::size_t i = 0; i < size_; ++i) {
    if (mine[i] > theirs[i]) return false;
  }
  return true;
}

Ordering VectorClock::compare(const VectorClock& other) const {
  const bool le = dominated_by(other);
  const bool ge = other.dominated_by(*this);
  if (le && ge) return Ordering::kEqual;
  if (le) return Ordering::kBefore;
  if (ge) return Ordering::kAfter;
  return Ordering::kConcurrent;
}

Ordering VectorClock::compare_vectorized(const VectorClock& other) const {
  DSMR_CHECK_MSG(other.size() == size(),
                 "comparing clocks of different sizes: " << size() << " vs " << other.size());
  const ClockValue* mine = data();
  const ClockValue* theirs = other.data();
  ClockValue above = 0;
  ClockValue below = 0;
#pragma omp simd reduction(| : above, below)
  for (std::size_t i = 0; i < size_; ++i) {
    above |= static_cast<ClockValue>(mine[i] > theirs[i]);
    below |= static_cast<ClockValue>(theirs[i] > mine[i]);
  }
  Ordering result;
  if (above == 0 && below == 0) {
    result = Ordering::kEqual;
  } else if (above == 0) {
    result = Ordering::kBefore;
  } else if (below == 0) {
    result = Ordering::kAfter;
  } else {
    result = Ordering::kConcurrent;
  }
  DSMR_ASSERT(result == compare(other));
  return result;
}

bool VectorClock::is_zero() const {
  const ClockValue* values = data();
  for (std::size_t i = 0; i < size_; ++i) {
    if (values[i] != 0) return false;
  }
  return true;
}

void VectorClock::encode_compact(std::vector<std::byte>& out) const {
  const ClockValue* values = data();
  for (std::size_t i = 0; i < size_; ++i) util::put_varint(out, values[i]);
}

VectorClock VectorClock::decode_compact(std::span<const std::byte> in, std::size_t n,
                                        std::size_t* offset) {
  std::size_t pos = offset ? *offset : 0;
  VectorClock clock(n);
  ClockValue* values = clock.data();
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = util::try_get_varint(in, &pos);
    DSMR_REQUIRE(v.has_value(), "compact clock decode ran past the buffer "
                                "or a component overflows 64 bits");
    values[i] = *v;
  }
  if (offset) *offset = pos;
  return clock;
}

namespace {

// Delta-encoding format tags: the first byte says how the rest is laid out.
constexpr std::byte kDeltaPlain{0};   // plain compact encoding follows.
constexpr std::byte kDeltaSparse{1};  // varint count + (index, value) pairs.

// Byte cost of the sparse body (count + pairs), without the tag.
std::size_t sparse_body_size(const VectorClock& clock, const VectorClock& base) {
  std::size_t diffs = 0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < clock.size(); ++i) {
    if (clock[i] != base[i]) {
      ++diffs;
      pairs += util::varint_size(i) + util::varint_size(clock[i]);
    }
  }
  return util::varint_size(diffs) + pairs;
}

}  // namespace

std::size_t VectorClock::delta_wire_size(const VectorClock& base) const {
  DSMR_CHECK_MSG(base.size() == size(),
                 "delta between clocks of different sizes: " << size() << " vs "
                                                             << base.size());
  return 1 + std::min(sparse_body_size(*this, base), wire_size());
}

void VectorClock::encode_delta(const VectorClock& base,
                               std::vector<std::byte>& out) const {
  DSMR_CHECK_MSG(base.size() == size(),
                 "delta between clocks of different sizes: " << size() << " vs "
                                                             << base.size());
  if (sparse_body_size(*this, base) >= wire_size()) {
    out.push_back(kDeltaPlain);
    encode_compact(out);
    return;
  }
  out.push_back(kDeltaSparse);
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < size_; ++i) diffs += (*this)[i] != base[i];
  util::put_varint(out, diffs);
  for (std::size_t i = 0; i < size_; ++i) {
    if ((*this)[i] != base[i]) {
      util::put_varint(out, i);
      util::put_varint(out, (*this)[i]);
    }
  }
}

VectorClock VectorClock::decode_delta(const VectorClock& base,
                                      std::span<const std::byte> in,
                                      std::size_t* offset) {
  std::size_t pos = offset ? *offset : 0;
  DSMR_REQUIRE(pos < in.size(), "delta clock decode ran past the buffer");
  const std::byte tag = in[pos++];
  if (tag == kDeltaPlain) {
    VectorClock clock = decode_compact(in, base.size(), &pos);
    if (offset) *offset = pos;
    return clock;
  }
  DSMR_REQUIRE(tag == kDeltaSparse, "unknown delta clock format tag");
  VectorClock clock = base;
  const auto diffs = util::try_get_varint(in, &pos);
  DSMR_REQUIRE(diffs.has_value(), "delta clock decode ran past the buffer");
  for (std::uint64_t d = 0; d < *diffs; ++d) {
    const auto index = util::try_get_varint(in, &pos);
    const auto value = util::try_get_varint(in, &pos);
    DSMR_REQUIRE(index.has_value() && value.has_value() && *index < clock.size(),
                 "malformed sparse clock delta");
    clock[static_cast<std::size_t>(*index)] = *value;
  }
  if (offset) *offset = pos;
  return clock;
}

void VectorClock::encode(std::vector<std::byte>& out) const {
  const std::size_t start = out.size();
  out.resize(start + fixed_wire_size());
  const ClockValue* values = data();
  for (std::size_t i = 0; i < size_; ++i) {
    ClockValue v = values[i];
    for (std::size_t b = 0; b < sizeof(ClockValue); ++b) {
      out[start + i * sizeof(ClockValue) + b] = static_cast<std::byte>(v & 0xff);
      v >>= 8;
    }
  }
}

VectorClock VectorClock::decode(std::span<const std::byte> in, std::size_t n,
                                std::size_t* offset) {
  std::size_t pos = offset ? *offset : 0;
  DSMR_REQUIRE(in.size() >= pos + n * sizeof(ClockValue),
               "decode buffer too small for clock of size " << n);
  VectorClock clock(n);
  ClockValue* values = clock.data();
  for (std::size_t i = 0; i < n; ++i) {
    ClockValue v = 0;
    for (std::size_t b = sizeof(ClockValue); b-- > 0;) {
      v = (v << 8) | static_cast<ClockValue>(in[pos + i * sizeof(ClockValue) + b]);
    }
    values[i] = v;
  }
  pos += n * sizeof(ClockValue);
  if (offset) *offset = pos;
  return clock;
}

std::string VectorClock::to_string() const {
  const ClockValue* values = data();
  const bool compact =
      std::all_of(values, values + size_, [](ClockValue v) { return v < 10; });
  std::ostringstream out;
  if (compact) {
    for (std::size_t i = 0; i < size_; ++i) out << values[i];
  } else {
    out << "[";
    for (std::size_t i = 0; i < size_; ++i) {
      if (i > 0) out << ",";
      out << values[i];
    }
    out << "]";
  }
  return out.str();
}

VectorClock VectorClock::truncated(std::size_t k) const {
  VectorClock result(std::min(k, size_));
  const ClockValue* values = data();
  ClockValue* out = result.data();
  for (std::size_t i = 0; i < result.size(); ++i) out[i] = values[i];
  return result;
}

VectorClock max_clock(const VectorClock& a, const VectorClock& b) {
  VectorClock result = a;
  result.merge_from(b);
  return result;
}

}  // namespace dsmr::clocks
