// Eraser-style lockset detection, adapted to the DSM model.
//
// The paper's related work (§II) situates its clock-based scheme among
// existing race detectors; the classic alternative family is lockset
// analysis (Savage et al., "Eraser"). This baseline runs the Eraser state
// machine over a run's ordering log (record/log.hpp), in issue order, with
// the area locks each initiator held at issue: the locks its lock and
// unlock events have taken and not yet given back.
//
// The comparison bench/paper_tables.cpp draws out (CLAIM-IV.D + BASE):
//  * lockset flags *locking-discipline* violations: it reports races that a
//    happens-before detector misses when a lucky schedule ordered them, but
//    it also flags correctly synchronized programs that order accesses with
//    messages/barriers instead of locks (false positives by HB standards);
//  * the paper's vector-clock scheme reports only genuine concurrency, but
//    only against the latest access (bounded recall over pairs).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "analysis/ground_truth.hpp"
#include "record/log.hpp"
#include "util/types.hpp"

namespace dsmr::baseline {

struct LocksetWarning {
  analysis::AreaKey area;
  std::uint64_t event_id = 0;  ///< the access (log index) on which the lockset emptied.
  Rank rank = kInvalidRank;
};

struct LocksetResult {
  std::vector<LocksetWarning> warnings;
  std::set<analysis::AreaKey> flagged_areas;
};

class LocksetDetector {
 public:
  /// Runs the state machine over the log's accesses in recorded order.
  static LocksetResult analyze(const record::Log& log);

 private:
  enum class State { kVirgin, kExclusive, kShared, kSharedModified };

  struct AreaState {
    State state = State::kVirgin;
    Rank first_rank = kInvalidRank;
    /// Candidate lockset C(x); nullopt = "all locks" (not yet constrained).
    std::optional<std::set<std::uint64_t>> candidates;
    bool reported = false;
  };
};

}  // namespace dsmr::baseline
