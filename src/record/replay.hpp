// Replay: re-derive the verdicts of a recorded run from its ordering log.
//
// `Folder` is the offline detector. It takes the event stream one event at
// a time, in the recorded total order, and drives the transitions the live
// engines run (detect/transitions.hpp) over the state they keep — per-rank
// vector clocks, one detect::ShardedDetector per home, lock handoff clocks,
// in-flight ack/response queues — validating every event first (logs are
// disk input). It can also take back what it folded: `checkpoint` marks
// the state and `restore` returns to the mark through undo trails, so a
// search over event orders (explore/dpor.cpp) folds each event once. An
// observer sees every access as it is applied, with the clocks the fold
// re-derived for it: the offline analyses (analysis/ground_truth.hpp) are
// folds. `replay_fold` is a Folder run over a whole log. Because clock evolution
// in the live engines is mode-independent, the fold of a `mode=off`
// recording under `DetectorMode::kDualClock` yields bit-identical verdicts
// to a live dual-clock run of the same schedule. That equivalence is the
// fuzz-grid invariant (`check_record_replay`).
//
// `ReplayGate` is the other half of the threaded-backend story: it forces a
// live `runtime::ThreadWorld` to re-execute its ops in a recorded log's
// total order, turning the backend's `kSometimes` schedules into replayable
// coordinates.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "clocks/vector_clock.hpp"
#include "core/race_report.hpp"
#include "core/rules.hpp"
#include "core/types.hpp"
#include "detect/sharded_detector.hpp"
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
  std::uint64_t checks = 0;   ///< accesses run through ShardedDetector::check_one.
  std::uint64_t events = 0;   ///< events folded.
};

/// One access as the fold applies it — what the offline analyses fold
/// (analysis/ground_truth.hpp). The observer sees it before the store, so
/// `stored` and the prior ids describe the area as the access found it.
struct AppliedAccess {
  std::uint64_t id;     ///< opens_access event's 1-based log index.
  Rank rank;            ///< the initiator.
  core::AccessKind kind;
  Rank home;
  std::uint32_t home_id;  ///< the area's AreaId on its home.
  const clocks::VectorClock& issue;    ///< initiator clock at issue (post-tick).
  /// The clock the store records: the home's post-receive clock on the
  /// simulator, the initiator's clock on the threaded backend.
  const clocks::VectorClock& applied;
  core::StoredClocks stored;   ///< V/W, their prior ranks and epochs.
  std::uint64_t prior_access;  ///< id of the access that stored V (0 = none).
  std::uint64_t prior_write;   ///< id of the write that stored W (0 = none).
};

/// A validating, incremental driver over the live transitions. Its state is
/// the state the live engines keep: one detect::ShardedDetector per home
/// rank (one shard — the fold is single-threaded), one clock per rank (in
/// the sim a rank's Process and its home NIC share a clock, which is why
/// puts and gets are split into issue/apply/completion events), the lock
/// handoff clocks, and the in-flight ack/response payloads. Same state,
/// same transitions => the live verdicts, bit for bit.
class Folder {
 public:
  /// A point to restore to: each trail's length and the result counters.
  struct Mark {
    std::size_t clocks = 0;
    std::size_t lanes = 0;
    std::size_t queue = 0;
    std::size_t reports = 0;
    std::uint64_t checks = 0;
    std::uint64_t events = 0;
    bool ok = true;
  };

  using Observer = std::function<void(const AppliedAccess&)>;

  /// Reads `log`'s header and area table, not its events; `log` must
  /// outlive the folder. A bad area table fails the fold up front.
  /// `observer`, when set, sees every access the fold applies; a folder
  /// without one pays a single branch per access.
  Folder(const Log& log, core::DetectorMode mode, Observer observer = {});

  /// Folds one event. Returns false, folding nothing, once the fold has
  /// failed; error() then names the first event that could not be folded.
  bool step(const Event& event);

  /// Marks the current state. From the first checkpoint on, every step
  /// saves what it is about to overwrite; until then steps keep no trail.
  Mark checkpoint();

  /// Undoes every step folded since `mark`, restoring state, reports,
  /// counters and error exactly as they were at checkpoint time.
  void restore(const Mark& mark);

  bool ok() const { return result_.ok(); }
  const std::string& error() const { return result_.error; }

  /// The races folded so far, counted per (area, accessor, kind) and sorted
  /// — VerdictSignature::races.
  std::vector<RaceCount> race_counts() const;

  /// Canonical rendering of the COMPLETE fold state (see
  /// replay_state_digest).
  std::string state_digest() const;

  /// The result, with `completed` and `stuck` as the signature's liveness
  /// (the fold replays exactly the recorded prefix, so liveness is the
  /// recording's to report). The signature stays empty when the fold
  /// failed.
  ReplayResult finish(bool completed, std::vector<Rank> stuck) &&;

 private:
  /// What an in-flight payload is waiting for. The order is the digest's.
  enum class Channel : std::uint8_t {
    kPutIssue,
    kPutAck,
    kGetIssue,
    kGetMerge,
    kUnlockRelease,
    kSignal,
  };

  /// One in-flight payload: its channel key — (initiator, flat area) for
  /// the op queues, (src, dst, tag) for a signal — its clock, and its
  /// access's id if it is an issue clock. Each initiator op is a blocking
  /// await, so an op channel holds at most one entry; a malformed log that
  /// violates that still folds FIFO.
  struct InFlight {
    Channel channel = Channel::kPutIssue;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t c = 0;
    clocks::VectorClock clock;
    std::uint64_t id = 0;

    /// Channel-key order: the order state_digest renders in.
    bool key_less(const InFlight& other) const {
      return std::tie(channel, a, b, c) < std::tie(other.channel, other.a, other.b, other.c);
    }
    bool same_key(const InFlight& other) const {
      return channel == other.channel && a == other.a && b == other.b && c == other.c;
    }
  };

  /// A flat area-table index resolved to its home detector's area id.
  struct Where {
    Rank home;
    detect::AreaId id;
  };

  // The undo trails, one per kind of state. The kinds touch disjoint
  // state, so restore() pops each trail on its own.

  /// clocks_[index] (handoffs_[index] when `handoff`) held `clock`.
  struct ClockSave {
    std::uint32_t index = 0;
    bool handoff = false;
    clocks::VectorClock clock;
  };
  /// Flat area `index`'s V (W when `w`) lane held `lane`.
  struct LaneSave {
    std::uint32_t index = 0;
    bool w = false;
    detect::LaneSnapshot lane;
  };
  /// A push appended at in_flight_'s back (`entry` unused), or a consume
  /// erased `entry` from position `at`.
  struct QueueSave {
    std::uint32_t at = 0;
    bool push = false;
    InFlight entry;
  };

  detect::ShardedDetector& detector(Where area) const {
    return *detectors_[static_cast<std::size_t>(area.home)];
  }

  void fold(const Event& event);
  void fail(const Event& event, const std::string& what);
  bool valid_rank(const Event& event, std::uint64_t rank);
  bool valid_area(const Event& event, std::uint64_t index);
  bool pop(const Event& event, Channel channel, std::uint64_t rank, std::uint64_t area,
           InFlight* out, const char* what);
  void push(Channel channel, std::uint64_t a, std::uint64_t b, std::uint64_t c,
            const clocks::VectorClock& clock, std::uint64_t id = 0);
  void consume(std::size_t at, InFlight* out);
  void observe(std::uint64_t id, Rank rank, core::AccessKind kind, std::uint64_t index,
               const clocks::VectorClock& issue, const clocks::VectorClock& applied) const;
  void report(std::uint64_t id, std::uint64_t index, core::AccessKind kind, Rank accessor,
              const clocks::VectorClock& accessor_clock, const core::Verdict& verdict);

  // Trail writers: each saves the current value before the step changes it.
  void save_clock(std::uint64_t rank);
  void save_handoff(std::uint64_t index);
  void save_lanes(std::uint64_t index, bool write);

  static std::string epoch_digest(clocks::Epoch epoch);

  const Log& log_;
  core::DetectorMode mode_;
  std::vector<clocks::VectorClock> clocks_;  ///< per rank.
  std::vector<Where> where_;                 ///< per flat area index.
  std::vector<std::unique_ptr<detect::ShardedDetector>> detectors_;  ///< per home.
  std::vector<clocks::VectorClock> handoffs_;  ///< per flat area; empty = none yet.
  /// In-flight payloads in arrival order; a consumed one is erased, so a
  /// scan covers only what is in flight. Signals match by the sender's own
  /// clock component (Event::d), not FIFO: same-channel signals can be
  /// reordered by perturbation or fault retries.
  std::vector<InFlight> in_flight_;
  ReplayResult result_;
  Observer observer_;
  bool trailing_ = false;  ///< set by the first checkpoint.
  std::vector<ClockSave> clock_trail_;
  std::vector<LaneSave> lane_trail_;
  std::vector<QueueSave> queue_trail_;
};

/// Folds `log` under detector `mode`. Pass `log.header.mode` to reproduce
/// the recorded configuration, or a stronger mode (the always-on production
/// story: record at kOff, fold at kDualClock). `observer` is the Folder's.
ReplayResult replay_fold(const Log& log, core::DetectorMode mode,
                         Folder::Observer observer = {});

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
