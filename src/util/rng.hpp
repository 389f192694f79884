// Deterministic pseudo-random number generation.
//
// Simulation reproducibility is a hard requirement (docs/testing.md: the
// replay of a failing coordinate *is* the failure): every random decision
// in the system flows from a single user-supplied seed.
// We use xoshiro256** (public-domain, Blackman & Vigna) seeded through
// SplitMix64, which is both faster and of higher statistical quality than
// std::mt19937_64 and — unlike the standard distributions — produces
// identical streams on every platform and standard-library implementation.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

#include "util/assert.hpp"

namespace dsmr::util {

/// SplitMix64: used to expand a 64-bit seed into xoshiro state.
/// Also useful directly for hashing small integers into well-mixed values.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: the project-wide PRNG. Satisfies the C++ named requirement
/// UniformRandomBitGenerator, so it can also drive <random> distributions
/// where platform-exact reproducibility is not required.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& word : state_) word = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) using Lemire's multiply-shift rejection
  /// method; platform-independent unlike std::uniform_int_distribution.
  std::uint64_t below(std::uint64_t bound) {
    DSMR_REQUIRE(bound > 0, "Rng::below requires a positive bound");
    __uint128_t m = static_cast<__uint128_t>(next()) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        m = static_cast<__uint128_t>(next()) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in the inclusive range [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    DSMR_REQUIRE(lo <= hi, "Rng::range requires lo <= hi");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Bernoulli trial with probability `p` of returning true.
  bool chance(double p) { return uniform() < p; }

  /// Derives an independent child stream; used to give each simulated
  /// component (channel, workload, process) its own decorrelated sequence.
  Rng fork(std::uint64_t stream_id) {
    SplitMix64 sm(next() ^ (0xd1342543de82ef95ULL * (stream_id + 1)));
    return Rng(sm.next());
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace dsmr::util
