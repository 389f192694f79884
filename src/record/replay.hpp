// Replay: re-derive the verdicts of a recorded run from its ordering log.
//
// `replay_fold` is the offline detector. It walks the event stream in the
// recorded total order and drives, step by step, the transitions the live
// engines run (detect/transitions.hpp) over the state they keep — per-rank
// vector clocks, one detect::ShardedDetector per home, lock handoff clocks,
// in-flight ack/response queues — validating every event first (logs are
// disk input). Because clock evolution in the live engines is
// mode-independent, the fold of a `mode=off` recording under
// `DetectorMode::kDualClock` yields bit-identical verdicts to a live
// dual-clock run of the same schedule. That equivalence is the fuzz-grid
// invariant (`check_record_replay`).
//
// `ReplayGate` is the other half of the threaded-backend story: it forces a
// live `runtime::ThreadWorld` to re-execute its ops in a recorded log's
// total order, turning the backend's `kSometimes` schedules into replayable
// coordinates.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/race_report.hpp"
#include "core/types.hpp"
#include "record/log.hpp"
#include "util/types.hpp"

namespace dsmr::record {

struct ReplayResult {
  /// Empty on success; otherwise a "[bad-trace] ..." diagnostic naming the
  /// event that could not be folded (logs are disk input — never a crash).
  std::string error;
  bool ok() const { return error.empty(); }

  /// Races found by the fold; completed/stuck carried over from the live
  /// footer (the fold replays exactly the recorded prefix, so liveness is
  /// the recording's to report).
  VerdictSignature signature;
  std::vector<core::RaceReport> reports;
  std::uint64_t checks = 0;   ///< accesses run through check_access.
  std::uint64_t events = 0;   ///< events folded.
};

/// Folds `log` under detector `mode`. Pass `log.header.mode` to reproduce
/// the recorded configuration, or a stronger mode (the always-on production
/// story: record at kOff, fold at kDualClock).
ReplayResult replay_fold(const Log& log, core::DetectorMode mode);

/// Canonical rendering of the COMPLETE folded detector state after the
/// last event: per-rank clocks, every area's V/W (full clock + epoch
/// witness, or "full" when unsummarized), last-access/last-write ranks,
/// lock handoff clocks,
/// in-flight payload queues, undelivered signal clocks in queue order, and
/// the race reports in fold order. Two event orders commute on detector
/// state iff their digests are byte-identical — explore/'s DPOR
/// independence property test is built on this. Returns the "[bad-trace]"
/// diagnostic when the fold fails.
std::string replay_state_digest(const Log& log, core::DetectorMode mode);

/// The fuzz-grid invariant check: fold the log at full dual-clock detection
/// and compare against the embedded live footer. Returns "" on match, else
/// a one-line divergence description.
std::string check_record_replay(const Log& log);

/// Round-trip variant for harnesses: serialize → parse → check, so the wire
/// format itself is exercised on every grid coordinate.
std::string check_record_replay_bytes(std::span<const std::byte> bytes);

/// Serializes a threaded-backend log's total order back into a live
/// `runtime::ThreadWorld`: each rank thread calls `enter` before an op and
/// `advance` after it, so ops commit in exactly the recorded order.
class ReplayGate {
 public:
  explicit ReplayGate(const Log& log);

  enum class Enter {
    kOk,         ///< `*event` is this rank's next op; proceed, then advance().
    kExhausted,  ///< log has no further events for this rank — the recorded
                 ///< run had it blocked here; re-block (report stuck).
    kTimeout,    ///< deadline passed while waiting for our turn: the replayed
                 ///< execution diverged from the log.
  };

  /// Blocks until the global cursor reaches an event of `rank`.
  Enter enter(Rank rank, std::chrono::steady_clock::time_point deadline,
              const Event** event);

  /// Commits the entered event and wakes the next rank. Call exactly once
  /// after a successful enter, once the op's shared-state effect is done.
  void advance();

  std::size_t cursor() const;
  std::size_t size() const { return events_.size(); }

 private:
  std::vector<Event> events_;
  std::vector<std::size_t> remaining_;  ///< per rank, events not yet consumed.
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t cursor_ = 0;
};

}  // namespace dsmr::record
