// Vector clocks (Mattern [15], Fidge), the partial-order witness the paper's
// detector is built on.
//
// Lemma 1 (paper, citing Mattern Theorem 10): e < e' iff C(e) < C(e'), and
// e ∥ e' iff C(e) ∥ C(e'). Corollary 1: if no ordering can be determined
// between the clocks of two conflicting accesses, there is a race.
//
// The paper's Algorithm 3 (`compare_clocks`) is implemented here as
// `dominated_by` / `compare`; the componentwise-max merge of Algorithm 4
// (`max_clock`) as `merge_from`.
//
// Representation: clocks up to kInlineCapacity components live entirely
// inside the object (no heap allocation) — clocks are copied on every
// simulated message, and debugging-scale systems (the paper's ~10 processes)
// should not pay an allocation per copy. Wider clocks spill to a vector.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "clocks/ordering.hpp"
#include "util/assert.hpp"
#include "util/types.hpp"
#include "util/varint.hpp"

namespace dsmr::clocks {

class VectorClock {
 public:
  /// Clocks of at most this many components need no heap storage. The
  /// inline buffer shares space with the heap pointer (union), so wider
  /// clocks do not pay for it.
  static constexpr std::size_t kInlineCapacity = 4;

  VectorClock() : size_(0), inline_{} {}

  /// A clock for a system of `n` processes, all components zero.
  /// §IV.C: n is also the provable lower bound on the clock size.
  explicit VectorClock(std::size_t n) { allocate_zeroed(n); }

  /// Convenience constructor for tests/examples: explicit component list.
  VectorClock(std::initializer_list<ClockValue> init) {
    allocate_zeroed(init.size());
    std::size_t i = 0;
    for (const ClockValue v : init) data()[i++] = v;
  }

  VectorClock(const VectorClock& other) { copy_from(other); }
  VectorClock& operator=(const VectorClock& other) {
    if (this != &other) {
      release();
      copy_from(other);
    }
    return *this;
  }
  VectorClock(VectorClock&& other) noexcept { steal_from(other); }
  VectorClock& operator=(VectorClock&& other) noexcept {
    if (this != &other) {
      release();
      steal_from(other);
    }
    return *this;
  }
  ~VectorClock() { release(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  ClockValue operator[](std::size_t i) const {
    DSMR_ASSERT(i < size_);
    return data()[i];
  }
  ClockValue& operator[](std::size_t i) {
    DSMR_ASSERT(i < size_);
    return data()[i];
  }

  /// The paper's update_local_clock: V[i] += 1 before process i acts.
  /// Hot path (every access ticks): inline, lightweight bounds check.
  void tick(Rank rank) {
    DSMR_ASSERT(rank >= 0 && static_cast<std::size_t>(rank) < size_);
    data()[static_cast<std::size_t>(rank)] += 1;
  }

  /// Algorithm 4 (max_clock): componentwise maximum, in place.
  void merge_from(const VectorClock& other);

  /// Componentwise `*this <= other` — the corrected reading of the paper's
  /// Algorithm 3, whose literal "<" in every component would mis-order
  /// clocks that share any equal component: {1,0} happens before {1,1}.
  bool dominated_by(const VectorClock& other) const;

  /// Full four-way comparison under Mattern's partial order.
  Ordering compare(const VectorClock& other) const;

  /// Same comparison, branchless inner loop: both domination predicates
  /// accumulate in a single pass with no early exit, so the compiler can
  /// vectorize it (`#pragma omp simd`; enabled by `-fopenmp-simd` when the
  /// toolchain has it, harmless otherwise). This is the batched check path's
  /// fallback compare — `compare` stays as the scalar oracle, and debug
  /// builds assert the two agree on every call.
  Ordering compare_vectorized(const VectorClock& other) const;

  /// The race predicate of Corollary 1: neither dominates the other.
  bool concurrent_with(const VectorClock& other) const {
    return compare(other) == Ordering::kConcurrent;
  }

  bool is_zero() const;

  bool operator==(const VectorClock& other) const {
    if (size_ != other.size_) return false;
    const ClockValue* a = data();
    const ClockValue* b = other.data();
    for (std::size_t i = 0; i < size_; ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }

  // ---- wire encodings ----
  //
  // The *compact* LEB128 encoding is what the simulator charges on the wire
  // (`wire_size`) and what the detection-metadata accounting reports: clock
  // components are small non-negative integers that grow with event counts,
  // so base-128 varints shrink the n×8-byte fixed layout by ~8x at
  // debugging scale. The fixed layout survives as `encode`/`decode` for
  // consumers needing random access (`fixed_wire_size` bytes).

  /// Size in bytes of one component's LEB128 encoding (util/varint.hpp —
  /// the same encoding the record/replay event log uses).
  static std::size_t varint_size(ClockValue v) { return util::varint_size(v); }

  /// Bytes of the compact encoding — the per-clock wire cost charged by the
  /// communication-overhead benches for each piggybacked clock.
  std::size_t wire_size() const {
    const ClockValue* values = data();
    std::size_t total = 0;
    for (std::size_t i = 0; i < size_; ++i) total += varint_size(values[i]);
    return total;
  }

  /// LEB128 per component, `size()` components.
  void encode_compact(std::vector<std::byte>& out) const;
  static VectorClock decode_compact(std::span<const std::byte> in, std::size_t n,
                                    std::size_t* offset);

  /// ---- delta encoding (piggyback compression) ----
  //
  // Dual-clock wire messages carry two clocks that are usually equal or
  // near-equal (W is refreshed from the same event stream as V), so the
  // second clock ships as a sparse delta against the first: a 1-byte format
  // tag, then either the plain compact encoding (tag 0) or a varint count of
  // differing components followed by (index, value) varint pairs (tag 1),
  // whichever is smaller. Worst case is plain-compact + 1 byte; typical case
  // (equal clocks) is 2 bytes regardless of n.

  /// Bytes of the delta encoding of `*this` against `base` (tag included).
  std::size_t delta_wire_size(const VectorClock& base) const;
  void encode_delta(const VectorClock& base, std::vector<std::byte>& out) const;
  static VectorClock decode_delta(const VectorClock& base,
                                  std::span<const std::byte> in,
                                  std::size_t* offset);

  /// Fixed wire encoding: n little-endian u64 components.
  std::size_t fixed_wire_size() const { return size_ * sizeof(ClockValue); }
  void encode(std::vector<std::byte>& out) const;
  static VectorClock decode(std::span<const std::byte> in, std::size_t n,
                            std::size_t* offset);

  /// Rendering like the paper's figures: "110" when every component is a
  /// single digit, otherwise "[1,10,2]".
  std::string to_string() const;

  /// Truncated projection onto the first `k` components — deliberately
  /// *unsound*; exists only for the §IV.C clock-size ablation.
  VectorClock truncated(std::size_t k) const;

 private:
  ClockValue* data() { return size_ <= kInlineCapacity ? inline_ : heap_; }
  const ClockValue* data() const { return size_ <= kInlineCapacity ? inline_ : heap_; }

  void allocate_zeroed(std::size_t n) {
    size_ = n;
    if (n > kInlineCapacity) {
      heap_ = new ClockValue[n]();
    } else {
      for (std::size_t i = 0; i < kInlineCapacity; ++i) inline_[i] = 0;
    }
  }

  void copy_from(const VectorClock& other) {
    size_ = other.size_;
    if (size_ > kInlineCapacity) {
      heap_ = new ClockValue[size_];
      for (std::size_t i = 0; i < size_; ++i) heap_[i] = other.heap_[i];
    } else {
      for (std::size_t i = 0; i < kInlineCapacity; ++i) inline_[i] = other.inline_[i];
    }
  }

  void steal_from(VectorClock& other) noexcept {
    size_ = other.size_;
    if (size_ > kInlineCapacity) {
      heap_ = other.heap_;
    } else {
      for (std::size_t i = 0; i < kInlineCapacity; ++i) inline_[i] = other.inline_[i];
    }
    // Leave the source as a valid empty clock (inline storage active).
    other.size_ = 0;
    for (std::size_t i = 0; i < kInlineCapacity; ++i) other.inline_[i] = 0;
  }

  void release() noexcept {
    if (size_ > kInlineCapacity) delete[] heap_;
  }

  std::size_t size_ = 0;
  union {
    ClockValue inline_[kInlineCapacity];
    ClockValue* heap_;
  };
};

/// Free-function form of Algorithm 4 returning a fresh clock.
VectorClock max_clock(const VectorClock& a, const VectorClock& b);

}  // namespace dsmr::clocks
