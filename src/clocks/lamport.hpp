// Lamport scalar clock ([12] in the paper).
//
// Provided for completeness and for the clock-size ablation
// (bench/bench_clock_size.cpp, CLAIM-IV.C): a scalar clock totally orders what it sees and therefore can
// never *witness* concurrency — a detector built on it reports nothing. The
// ablation bench quantifies that false-negative rate against vector clocks.
#pragma once

#include <algorithm>

#include "util/types.hpp"

namespace dsmr::clocks {

class LamportClock {
 public:
  /// Local event: advance and return the event timestamp.
  ClockValue tick() { return ++time_; }

  /// Message receipt carrying timestamp `other`: take max then advance.
  ClockValue merge(ClockValue other) {
    time_ = std::max(time_, other);
    return ++time_;
  }

  ClockValue time() const { return time_; }

 private:
  ClockValue time_ = 0;
};

}  // namespace dsmr::clocks
