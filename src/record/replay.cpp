#include "record/replay.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>
#include <utility>

#include "clocks/vector_clock.hpp"
#include "detect/sharded_detector.hpp"
#include "detect/transitions.hpp"
#include "util/assert.hpp"

namespace dsmr::record {
namespace {

using clocks::VectorClock;

/// In-flight payload clocks keyed by (initiator, area). Each initiator op
/// is a blocking await, so every queue's depth is at most 1; deques keep
/// the fold honest if a malformed log violates that.
using PayloadQueues =
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::deque<VectorClock>>;

/// A validating driver over the live transitions (detect/transitions.hpp).
/// Its state is the state the live engines keep: one detect::ShardedDetector
/// per home rank (one shard — the fold is single-threaded), one clock per
/// rank (in the sim a rank's Process and its home NIC share a clock, which
/// is why puts and gets are split into issue/apply/completion events), the
/// lock handoff clocks, and the in-flight ack/response payloads. Same state,
/// same transitions => the live verdicts, bit for bit.
class Folder {
 public:
  Folder(const Log& log, core::DetectorMode mode) : log_(log), mode_(mode) {
    const std::size_t n = log.header.nprocs;
    clocks_.assign(n, VectorClock(n));
    handoffs_.resize(log.areas.size());
    where_.reserve(log.areas.size());
    std::vector<std::size_t> per_home(n, 0);
    for (std::size_t i = 0; i < log.areas.size(); ++i) {
      const Rank home = log.areas[i].home;
      if (home < 0 || static_cast<std::size_t>(home) >= n) {
        result_.error = "[bad-trace] area " + std::to_string(i) + " home rank " +
                        std::to_string(home) + " out of range";
        return;
      }
      const auto h = static_cast<std::size_t>(home);
      where_.push_back(Where{home, static_cast<detect::AreaId>(per_home[h]++)});
    }
    // Per-home area ids are dense in allocation order (the log's table
    // order), so each detector registers its whole slice at once.
    detectors_.reserve(n);
    for (std::size_t r = 0; r < n; ++r) {
      detectors_.push_back(
          std::make_unique<detect::ShardedDetector>(n, static_cast<Rank>(r), 1));
      detectors_.back()->register_areas(per_home[r]);
    }
  }

  ReplayResult run() {
    for (std::size_t i = 0; i < log_.events.size() && result_.ok(); ++i) {
      index_ = i;
      fold(log_.events[i]);
      if (result_.ok()) ++result_.events;
    }
    if (result_.ok()) {
      result_.signature.completed = log_.live.completed;
      result_.signature.stuck_ranks = log_.live.stuck_ranks;
      std::map<std::tuple<std::uint64_t, Rank, int>, std::uint64_t> counts;
      for (const core::RaceReport& report : result_.reports) {
        counts[{report.area, report.accessor, static_cast<int>(report.kind)}] +=
            1;
      }
      for (const auto& [key, count] : counts) {
        result_.signature.races.push_back(
            RaceCount{std::get<0>(key), std::get<1>(key),
                      static_cast<core::AccessKind>(std::get<2>(key)), count});
      }
    }
    return std::move(result_);
  }

 private:
  /// A flat area-table index resolved to its home detector's area id.
  struct Where {
    Rank home;
    detect::AreaId id;
  };

  detect::ShardedDetector& detector(Where area) const {
    return *detectors_[static_cast<std::size_t>(area.home)];
  }

  void fail(const Event& event, const std::string& what) {
    if (!result_.ok()) return;
    result_.error = "[bad-trace] event #" + std::to_string(index_) + " (" +
                    to_string(event.kind) + "): " + what;
  }

  bool valid_rank(const Event& event, std::uint64_t rank) {
    if (rank < clocks_.size()) return true;
    fail(event, "rank " + std::to_string(rank) + " out of range");
    return false;
  }

  bool valid_area(const Event& event, std::uint64_t index) {
    if (index < where_.size()) return true;
    fail(event, "area " + std::to_string(index) + " out of range");
    return false;
  }

  /// Pops the single in-flight payload of (rank, area) from `queue`.
  bool pop(const Event& event, PayloadQueues& queue, std::uint64_t rank,
           std::uint64_t area, VectorClock* out, const char* what) {
    auto it = queue.find({rank, area});
    if (it == queue.end() || it->second.empty()) {
      fail(event, std::string("no pending ") + what + " for rank " +
                      std::to_string(rank) + " area " + std::to_string(area));
      return false;
    }
    *out = std::move(it->second.front());
    it->second.pop_front();
    return true;
  }

  /// Files the race the shared transition flagged on flat area `index`. It
  /// runs before the store, so the detector still holds the compared clock.
  void report(std::uint64_t index, core::AccessKind kind, Rank accessor,
              const VectorClock& accessor_clock, const core::Verdict& verdict) {
    const Where area = where_[index];
    core::RaceReport report;
    report.id = result_.reports.size() + 1;
    report.home = area.home;
    // The fold speaks flat area-table indices (per-segment ids are not in
    // the log); signatures are built in the same coordinates.
    report.area = static_cast<std::uint32_t>(index);
    report.area_name = log_.areas[index].name;
    report.accessor = accessor;
    report.kind = kind;
    report.accessor_clock = accessor_clock;
    report.against = verdict.against;
    report.stored_clock = detector(area).prior_clock(area.id, verdict.against);
    result_.reports.push_back(std::move(report));
  }

  void fold(const Event& event) {
    switch (event.kind) {
      case EventKind::kTick: {
        if (!valid_rank(event, event.a)) return;
        clocks_[event.a].tick(static_cast<Rank>(event.a));
        return;
      }
      case EventKind::kPutIssue:
      case EventKind::kGetIssue: {
        if (!valid_rank(event, event.a) || !valid_area(event, event.b)) return;
        PayloadQueues& queue =
            event.kind == EventKind::kPutIssue ? put_issue_ : get_issue_;
        clocks_[event.a].tick(static_cast<Rank>(event.a));
        queue[{event.a, event.b}].push_back(clocks_[event.a]);
        return;
      }
      case EventKind::kPutApply:
      case EventKind::kGetApply: {
        if (!valid_area(event, event.b) || !valid_rank(event, event.a)) return;
        const bool put = event.kind == EventKind::kPutApply;
        VectorClock issue;
        if (!pop(event, put ? put_issue_ : get_issue_, event.a, event.b, &issue,
                 put ? "put issue" : "get issue"))
          return;
        const auto src = static_cast<Rank>(event.a);
        const auto kind = put ? core::AccessKind::kWrite : core::AccessKind::kRead;
        const Where area = where_[event.b];
        // The home NIC's receive_event, then the shared apply rule (its store
        // is mode-independent, so an off recording folds at any mode).
        VectorClock& home_clock = clocks_[static_cast<std::size_t>(area.home)];
        home_clock.tick(area.home);
        home_clock.merge_from(issue);
        ++result_.checks;
        detect::home_apply(detector(area), mode_, kind, src, issue, home_clock,
                           area.id, /*check=*/true, /*event_id=*/0,
                           [&](const core::Verdict& verdict) {
                             report(event.b, kind, src, issue, verdict);
                           });
        if (!put) {
          get_merge_[{event.a, event.b}].push_back(home_clock);
        } else if (log_.header.acked_puts) {
          put_ack_[{event.a, event.b}].push_back(home_clock);
        }
        return;
      }
      case EventKind::kPutAck:
      case EventKind::kGetMerge: {
        if (!valid_rank(event, event.a) || !valid_area(event, event.b)) return;
        PayloadQueues& queue =
            event.kind == EventKind::kPutAck ? put_ack_ : get_merge_;
        VectorClock payload;
        if (!pop(event, queue, event.a, event.b, &payload, "completion")) return;
        clocks_[event.a].merge_from(payload);
        return;
      }
      case EventKind::kLock:
      case EventKind::kThreadLock: {
        // Grant: tick, then merge the handoff. A handoff exists only when
        // the log's regime hands clocks off (both backends gate the release).
        if (!valid_area(event, event.b) || !valid_rank(event, event.a)) return;
        VectorClock& clock = clocks_[event.a];
        clock.tick(static_cast<Rank>(event.a));
        if (!handoffs_[event.b].empty()) clock.merge_from(handoffs_[event.b]);
        return;
      }
      case EventKind::kUnlockIssue: {
        if (!valid_rank(event, event.a) || !valid_area(event, event.b)) return;
        clocks_[event.a].tick(static_cast<Rank>(event.a));
        if (log_.header.lock_clock_handoff) {
          unlock_release_[{event.a, event.b}].push_back(clocks_[event.a]);
        }
        return;
      }
      case EventKind::kUnlockApply: {
        if (!valid_area(event, event.b) || !valid_rank(event, event.a)) return;
        VectorClock release;
        if (!pop(event, unlock_release_, event.a, event.b, &release,
                 "unlock release"))
          return;
        detect::hand_off(handoffs_[event.b], release);
        return;
      }
      case EventKind::kSignal: {
        if (!valid_rank(event, event.a) || !valid_rank(event, event.b)) return;
        clocks_[event.a].tick(static_cast<Rank>(event.a));
        signals_[{event.a, event.b, event.c}].push_back(clocks_[event.a]);
        return;
      }
      case EventKind::kWaitMatch: {
        if (!valid_rank(event, event.a) || !valid_rank(event, event.b)) return;
        auto& queue = signals_[{event.b, event.a, event.c}];
        // Match by the sender's own component at send time (field d): the
        // sender ticks before every signal, so the component names exactly
        // one send even when same-channel signals arrive reordered.
        auto it = std::find_if(queue.begin(), queue.end(),
                               [&](const VectorClock& clk) {
                                 return clk[static_cast<std::size_t>(event.b)] ==
                                        event.d;
                               });
        if (it == queue.end()) {
          fail(event, "no undelivered signal from rank " +
                          std::to_string(event.b) + " tag " +
                          std::to_string(event.c) + " with sender component " +
                          std::to_string(event.d));
          return;
        }
        const VectorClock sender = std::move(*it);
        queue.erase(it);
        clocks_[event.a].tick(static_cast<Rank>(event.a));
        clocks_[event.a].merge_from(sender);
        return;
      }
      case EventKind::kThreadPut:
      case EventKind::kThreadGet: {
        if (!valid_area(event, event.b) || !valid_rank(event, event.a)) return;
        const auto rank = static_cast<Rank>(event.a);
        const auto kind = event.kind == EventKind::kThreadPut
                              ? core::AccessKind::kWrite
                              : core::AccessKind::kRead;
        const Where area = where_[event.b];
        VectorClock& clock = clocks_[event.a];
        clock.tick(rank);
        ++result_.checks;
        const VectorClock merge = detect::thread_access(
            detector(area), mode_, kind, rank, clock, area.id,
            log_.header.acked_puts, /*event_id=*/0,
            [&](const core::Verdict& verdict) {
              report(event.b, kind, rank, clock, verdict);
            });
        if (!merge.empty()) clock.merge_from(merge);
        return;
      }
      case EventKind::kThreadUnlock: {
        if (!valid_area(event, event.b) || !valid_rank(event, event.a)) return;
        VectorClock& clock = clocks_[event.a];
        clock.tick(static_cast<Rank>(event.a));
        if (log_.header.lock_clock_handoff) detect::hand_off(handoffs_[event.b], clock);
        return;
      }
    }
    fail(event, "unknown event kind");
  }

  const Log& log_;
  core::DetectorMode mode_;
  std::vector<VectorClock> clocks_;  ///< per rank.
  std::vector<Where> where_;         ///< per flat area index.
  std::vector<std::unique_ptr<detect::ShardedDetector>> detectors_;  ///< per home.
  std::vector<VectorClock> handoffs_;  ///< per flat area; empty = none yet.
  PayloadQueues put_issue_, put_ack_, get_issue_, get_merge_, unlock_release_;
  /// Undelivered signal clocks keyed by (src, dst, tag). Matching is by the
  /// sender's own clock component (Event::d), not FIFO: same-channel signals
  /// can be reordered by perturbation or fault retries.
  std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>,
           std::deque<VectorClock>>
      signals_;
  ReplayResult result_;
  std::size_t index_ = 0;

 public:
  /// Canonical dump of the post-run fold state; every field the fold keeps
  /// shows up, so two event orders commute iff their dumps match.
  std::string state_digest(const ReplayResult& result) const {
    std::ostringstream out;
    for (std::size_t r = 0; r < clocks_.size(); ++r) {
      out << "r" << r << "=" << clocks_[r].to_string() << "\n";
    }
    for (std::size_t i = 0; i < where_.size(); ++i) {
      const Where area = where_[i];
      const detect::ShardedDetector& det = detector(area);
      out << "a" << i << " " << log_.areas[i].name << " home=" << area.home
          << " v=" << det.v_clock(area.id).to_string()
          << " ve=" << epoch_digest(det.v_epoch(area.id))
          << " w=" << det.w_clock(area.id).to_string()
          << " we=" << epoch_digest(det.w_epoch(area.id))
          << " la=" << det.last_access_rank(area.id)
          << " lw=" << det.last_write_rank(area.id) << " handoff="
          << (handoffs_[i].empty() ? "-" : handoffs_[i].to_string()) << "\n";
    }
    queue_digest(out, "put_issue", put_issue_);
    queue_digest(out, "put_ack", put_ack_);
    queue_digest(out, "get_issue", get_issue_);
    queue_digest(out, "get_merge", get_merge_);
    queue_digest(out, "unlock_release", unlock_release_);
    for (const auto& [key, queue] : signals_) {
      if (queue.empty()) continue;
      out << "signal " << std::get<0>(key) << "->" << std::get<1>(key) << " t"
          << std::get<2>(key) << ":";
      for (const VectorClock& clk : queue) out << " " << clk.to_string();
      out << "\n";
    }
    for (const core::RaceReport& report : result.reports) {
      out << "race a" << report.area << " by r" << report.accessor << " "
          << (report.kind == core::AccessKind::kWrite ? "W" : "R") << " vs "
          << (report.against == core::ComparedAgainst::kW ? "W" : "V") << " "
          << report.accessor_clock.to_string() << " | "
          << report.stored_clock.to_string() << "\n";
    }
    return out.str();
  }

 private:
  static std::string epoch_digest(clocks::Epoch epoch) {
    if (!epoch.valid()) return "full";
    return std::to_string(epoch.rank) + "@" + std::to_string(epoch.value);
  }

  static void queue_digest(std::ostringstream& out, const char* label,
                           const PayloadQueues& map) {
    for (const auto& [key, queue] : map) {
      if (queue.empty()) continue;
      out << label << " (" << key.first << ",a" << key.second << "):";
      for (const VectorClock& clk : queue) out << " " << clk.to_string();
      out << "\n";
    }
  }
};

}  // namespace

ReplayResult replay_fold(const Log& log, core::DetectorMode mode) {
  return Folder(log, mode).run();
}

std::string replay_state_digest(const Log& log, core::DetectorMode mode) {
  Folder folder(log, mode);
  const ReplayResult result = folder.run();
  if (!result.ok()) return result.error;
  return folder.state_digest(result);
}

std::string check_record_replay(const Log& log) {
  // Compare against the footer at the recorded detector mode: the footer
  // holds what the live detector actually reported under that mode.
  const ReplayResult folded = replay_fold(log, log.header.mode);
  if (!folded.ok()) return "fold failed: " + folded.error;
  if (folded.signature == log.live) return "";
  return "replay verdicts diverge from live: replay " +
         folded.signature.to_string() + " vs live " + log.live.to_string();
}

std::string check_record_replay_bytes(std::span<const std::byte> bytes) {
  std::string error;
  const std::optional<Log> log = Log::parse(bytes, &error);
  if (!log.has_value()) return "log round-trip failed: " + error;
  return check_record_replay(*log);
}

ReplayGate::ReplayGate(const Log& log)
    : events_(log.events), remaining_(log.header.nprocs, 0) {
  for (const Event& event : events_) {
    if (event.a < remaining_.size()) ++remaining_[event.a];
  }
}

ReplayGate::Enter ReplayGate::enter(
    Rank rank, std::chrono::steady_clock::time_point deadline,
    const Event** event) {
  const auto r = static_cast<std::size_t>(rank);
  std::unique_lock lock(mutex_);
  while (true) {
    if (remaining_[r] == 0) return Enter::kExhausted;
    if (cursor_ < events_.size() && events_[cursor_].a == r) {
      *event = &events_[cursor_];
      return Enter::kOk;
    }
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      return Enter::kTimeout;
    }
  }
}

void ReplayGate::advance() {
  std::lock_guard lock(mutex_);
  DSMR_CHECK(cursor_ < events_.size());
  const std::uint64_t rank = events_[cursor_].a;
  if (rank < remaining_.size()) --remaining_[rank];
  ++cursor_;
  cv_.notify_all();
}

std::size_t ReplayGate::cursor() const {
  std::lock_guard lock(mutex_);
  return cursor_;
}

}  // namespace dsmr::record
