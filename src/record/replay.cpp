#include "record/replay.hpp"

#include <algorithm>
#include <sstream>

#include "detect/transitions.hpp"
#include "util/assert.hpp"

namespace dsmr::record {

using clocks::VectorClock;

Folder::Folder(const Log& log, core::DetectorMode mode, Observer observer)
    : log_(log), mode_(mode), observer_(std::move(observer)) {
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

bool Folder::step(const Event& event) {
  if (!result_.ok()) return false;
  fold(event);
  if (!result_.ok()) return false;
  ++result_.events;
  return true;
}

Folder::Mark Folder::checkpoint() {
  trailing_ = true;
  return Mark{clock_trail_.size(), lane_trail_.size(), queue_trail_.size(),
              result_.reports.size(), result_.checks, result_.events, result_.ok()};
}

void Folder::restore(const Mark& mark) {
  DSMR_CHECK_MSG(trailing_ && mark.clocks <= clock_trail_.size() &&
                     mark.lanes <= lane_trail_.size() && mark.queue <= queue_trail_.size(),
                 "restore to a mark this folder did not hand out");
  while (clock_trail_.size() > mark.clocks) {
    ClockSave& save = clock_trail_.back();
    (save.handoff ? handoffs_ : clocks_)[save.index] = std::move(save.clock);
    clock_trail_.pop_back();
  }
  while (lane_trail_.size() > mark.lanes) {
    const LaneSave& save = lane_trail_.back();
    const Where area = where_[save.index];
    detector(area).restore_lane(area.id, save.w, save.lane);
    lane_trail_.pop_back();
  }
  while (queue_trail_.size() > mark.queue) {
    QueueSave& save = queue_trail_.back();
    if (save.push) {
      in_flight_.pop_back();
    } else {
      in_flight_.insert(in_flight_.begin() + static_cast<std::ptrdiff_t>(save.at),
                        std::move(save.entry));
    }
    queue_trail_.pop_back();
  }
  result_.reports.erase(result_.reports.begin() + static_cast<std::ptrdiff_t>(mark.reports),
                        result_.reports.end());
  result_.checks = mark.checks;
  result_.events = mark.events;
  if (mark.ok) result_.error.clear();
}

// The trail writers construct each entry in place from the state it saves.
void Folder::save_clock(std::uint64_t rank) {
  if (trailing_) clock_trail_.emplace_back(static_cast<std::uint32_t>(rank), false, clocks_[rank]);
}

void Folder::save_handoff(std::uint64_t index) {
  if (trailing_) {
    clock_trail_.emplace_back(static_cast<std::uint32_t>(index), true, handoffs_[index]);
  }
}

void Folder::save_lanes(std::uint64_t index, bool write) {
  if (!trailing_) return;
  const Where area = where_[index];
  const auto i = static_cast<std::uint32_t>(index);
  lane_trail_.emplace_back(i, false, detector(area).lane_snapshot(area.id, false));
  if (write) lane_trail_.emplace_back(i, true, detector(area).lane_snapshot(area.id, true));
}

void Folder::push(Channel channel, std::uint64_t a, std::uint64_t b, std::uint64_t c,
                  const VectorClock& clock, std::uint64_t id) {
  in_flight_.emplace_back(channel, a, b, c, clock, id);
  if (trailing_) queue_trail_.emplace_back(0, true);
}

/// Erases in_flight_[at], copying it to `out` first when `out` is set.
void Folder::consume(std::size_t at, InFlight* out) {
  const auto it = in_flight_.begin() + static_cast<std::ptrdiff_t>(at);
  if (out != nullptr) *out = *it;
  if (trailing_) queue_trail_.emplace_back(static_cast<std::uint32_t>(at), false, std::move(*it));
  in_flight_.erase(it);
}

void Folder::fail(const Event& event, const std::string& what) {
  if (!result_.ok()) return;
  result_.error = "[bad-trace] event #" + std::to_string(result_.events) + " (" +
                  to_string(event.kind) + "): " + what;
}

bool Folder::valid_rank(const Event& event, std::uint64_t rank) {
  if (rank < clocks_.size()) return true;
  fail(event, "rank " + std::to_string(rank) + " out of range");
  return false;
}

bool Folder::valid_area(const Event& event, std::uint64_t index) {
  if (index < where_.size()) return true;
  fail(event, "area " + std::to_string(index) + " out of range");
  return false;
}

/// Takes the oldest in-flight payload of (rank, area) on `channel`.
bool Folder::pop(const Event& event, Channel channel, std::uint64_t rank, std::uint64_t area,
                 InFlight* out, const char* what) {
  for (std::size_t at = 0; at < in_flight_.size(); ++at) {
    const InFlight& entry = in_flight_[at];
    if (entry.channel == channel && entry.a == rank && entry.b == area) {
      consume(at, out);
      return true;
    }
  }
  fail(event, std::string("no pending ") + what + " for rank " + std::to_string(rank) +
                  " area " + std::to_string(area));
  return false;
}

/// Hands access `id` to the observer, with the area state it meets.
void Folder::observe(std::uint64_t id, Rank rank, core::AccessKind kind, std::uint64_t index,
                     const VectorClock& issue, const VectorClock& applied) const {
  const Where area = where_[index];
  const detect::ShardedDetector& det = detector(area);
  observer_(AppliedAccess{
      id, rank, kind, area.home, area.id, issue, applied,
      core::StoredClocks{det.v_clock(area.id), det.w_clock(area.id),
                         det.last_access_rank(area.id), det.last_write_rank(area.id),
                         det.v_epoch(area.id), det.w_epoch(area.id)},
      det.last_access_event(area.id), det.last_write_event(area.id)});
}

/// Files the race the shared transition flagged on access `id` to flat
/// area `index`. It runs before the store, so the detector still holds the
/// compared clock and the id of the access that stored it.
void Folder::report(std::uint64_t id, std::uint64_t index, core::AccessKind kind,
                    Rank accessor, const VectorClock& accessor_clock,
                    const core::Verdict& verdict) {
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
  report.event_id = id;
  report.accessor_clock = accessor_clock;
  report.against = verdict.against;
  report.stored_clock = detector(area).prior_clock(area.id, verdict.against);
  report.prior_event_id = detector(area).prior_event(area.id, verdict.against);
  result_.reports.push_back(std::move(report));
}

// Every case validates first and saves what it is about to change
// (save_* / push / pop) before changing it, so a failed event changes
// nothing and restore() can pop the trail in reverse.
void Folder::fold(const Event& event) {
  switch (event.kind) {
    case EventKind::kTick: {
      if (!valid_rank(event, event.a)) return;
      save_clock(event.a);
      clocks_[event.a].tick(static_cast<Rank>(event.a));
      return;
    }
    case EventKind::kPutIssue:
    case EventKind::kGetIssue: {
      if (!valid_rank(event, event.a) || !valid_area(event, event.b)) return;
      const Channel channel =
          event.kind == EventKind::kPutIssue ? Channel::kPutIssue : Channel::kGetIssue;
      save_clock(event.a);
      clocks_[event.a].tick(static_cast<Rank>(event.a));
      // step() counts the event once it is folded: this is its log index.
      push(channel, event.a, event.b, 0, clocks_[event.a], result_.events + 1);
      return;
    }
    case EventKind::kPutApply:
    case EventKind::kGetApply: {
      if (!valid_area(event, event.b) || !valid_rank(event, event.a)) return;
      const bool put = event.kind == EventKind::kPutApply;
      InFlight issue;
      if (!pop(event, put ? Channel::kPutIssue : Channel::kGetIssue, event.a, event.b, &issue,
               put ? "put issue" : "get issue"))
        return;
      const auto src = static_cast<Rank>(event.a);
      const auto kind = put ? core::AccessKind::kWrite : core::AccessKind::kRead;
      const Where area = where_[event.b];
      // The home NIC's receive_event, then the shared apply rule (its store
      // is mode-independent, so an off recording folds at any mode).
      save_clock(static_cast<std::uint64_t>(area.home));
      save_lanes(event.b, put);
      VectorClock& home_clock = clocks_[static_cast<std::size_t>(area.home)];
      home_clock.tick(area.home);
      home_clock.merge_from(issue.clock);
      if (observer_) observe(issue.id, src, kind, event.b, issue.clock, home_clock);
      ++result_.checks;
      detect::home_apply(detector(area), mode_, kind, src, issue.clock, home_clock,
                         area.id, /*check=*/true, issue.id,
                         [&](const core::Verdict& verdict) {
                           report(issue.id, event.b, kind, src, issue.clock, verdict);
                         });
      if (!put) {
        push(Channel::kGetMerge, event.a, event.b, 0, home_clock);
      } else if (log_.header.acked_puts) {
        push(Channel::kPutAck, event.a, event.b, 0, home_clock);
      }
      return;
    }
    case EventKind::kPutAck:
    case EventKind::kGetMerge: {
      if (!valid_rank(event, event.a) || !valid_area(event, event.b)) return;
      const Channel channel =
          event.kind == EventKind::kPutAck ? Channel::kPutAck : Channel::kGetMerge;
      InFlight payload;
      if (!pop(event, channel, event.a, event.b, &payload, "completion")) return;
      save_clock(event.a);
      clocks_[event.a].merge_from(payload.clock);
      return;
    }
    case EventKind::kLock:
    case EventKind::kThreadLock: {
      // Grant: tick, then merge the handoff. A handoff exists only when
      // the log's regime hands clocks off (both backends gate the release).
      if (!valid_area(event, event.b) || !valid_rank(event, event.a)) return;
      save_clock(event.a);
      VectorClock& clock = clocks_[event.a];
      clock.tick(static_cast<Rank>(event.a));
      if (!handoffs_[event.b].empty()) clock.merge_from(handoffs_[event.b]);
      return;
    }
    case EventKind::kUnlockIssue: {
      if (!valid_rank(event, event.a) || !valid_area(event, event.b)) return;
      save_clock(event.a);
      clocks_[event.a].tick(static_cast<Rank>(event.a));
      if (log_.header.lock_clock_handoff) {
        push(Channel::kUnlockRelease, event.a, event.b, 0, clocks_[event.a]);
      }
      return;
    }
    case EventKind::kUnlockApply: {
      if (!valid_area(event, event.b) || !valid_rank(event, event.a)) return;
      InFlight release;
      if (!pop(event, Channel::kUnlockRelease, event.a, event.b, &release,
               "unlock release"))
        return;
      save_handoff(event.b);
      detect::hand_off(handoffs_[event.b], release.clock);
      return;
    }
    case EventKind::kSignal: {
      if (!valid_rank(event, event.a) || !valid_rank(event, event.b)) return;
      save_clock(event.a);
      clocks_[event.a].tick(static_cast<Rank>(event.a));
      push(Channel::kSignal, event.a, event.b, event.c, clocks_[event.a]);
      return;
    }
    case EventKind::kWaitMatch: {
      if (!valid_rank(event, event.a) || !valid_rank(event, event.b)) return;
      // Match by the sender's own component at send time (field d): the
      // sender ticks before every signal, so the component names exactly
      // one send even when same-channel signals arrive reordered.
      const auto src = static_cast<std::size_t>(event.b);
      const auto it = std::find_if(in_flight_.begin(), in_flight_.end(),
                                   [&](const InFlight& signal) {
                                     return signal.channel == Channel::kSignal &&
                                            signal.a == event.b && signal.b == event.a &&
                                            signal.c == event.c && signal.clock[src] == event.d;
                                   });
      if (it == in_flight_.end()) {
        fail(event, "no undelivered signal from rank " +
                        std::to_string(event.b) + " tag " +
                        std::to_string(event.c) + " with sender component " +
                        std::to_string(event.d));
        return;
      }
      save_clock(event.a);
      clocks_[event.a].tick(static_cast<Rank>(event.a));
      clocks_[event.a].merge_from(it->clock);
      consume(static_cast<std::size_t>(it - in_flight_.begin()), nullptr);
      return;
    }
    case EventKind::kThreadPut:
    case EventKind::kThreadGet: {
      if (!valid_area(event, event.b) || !valid_rank(event, event.a)) return;
      const auto rank = static_cast<Rank>(event.a);
      const bool put = event.kind == EventKind::kThreadPut;
      const auto kind = put ? core::AccessKind::kWrite : core::AccessKind::kRead;
      const Where area = where_[event.b];
      save_clock(event.a);
      save_lanes(event.b, put);
      VectorClock& clock = clocks_[event.a];
      clock.tick(rank);
      const std::uint64_t id = result_.events + 1;
      if (observer_) observe(id, rank, kind, event.b, clock, clock);
      ++result_.checks;
      const VectorClock merge = detect::thread_access(
          detector(area), mode_, kind, rank, clock, area.id,
          log_.header.acked_puts, id,
          [&](const core::Verdict& verdict) {
            report(id, event.b, kind, rank, clock, verdict);
          });
      if (!merge.empty()) clock.merge_from(merge);
      return;
    }
    case EventKind::kThreadUnlock: {
      if (!valid_area(event, event.b) || !valid_rank(event, event.a)) return;
      save_clock(event.a);
      VectorClock& clock = clocks_[event.a];
      clock.tick(static_cast<Rank>(event.a));
      if (log_.header.lock_clock_handoff) {
        save_handoff(event.b);
        detect::hand_off(handoffs_[event.b], clock);
      }
      return;
    }
  }
  fail(event, "unknown event kind");
}

std::vector<RaceCount> Folder::race_counts() const {
  std::vector<RaceCount> races;
  races.reserve(result_.reports.size());
  for (const core::RaceReport& report : result_.reports) {
    races.push_back(RaceCount{report.area, report.accessor, report.kind, 1});
  }
  std::sort(races.begin(), races.end());
  // Coalesce equal (area, accessor, kind) keys into one count.
  std::size_t out = 0;
  for (std::size_t i = 0; i < races.size(); ++i) {
    if (out > 0 && !(races[out - 1] < races[i])) {
      races[out - 1].count += 1;
    } else {
      races[out++] = races[i];
    }
  }
  races.resize(out);
  return races;
}

ReplayResult Folder::finish(bool completed, std::vector<Rank> stuck) && {
  if (result_.ok()) {
    result_.signature.completed = completed;
    result_.signature.stuck_ranks = std::move(stuck);
    result_.signature.races = race_counts();
  }
  return std::move(result_);
}

/// Canonical dump of the fold state; every field the fold keeps shows up,
/// so two event orders commute iff their dumps match.
std::string Folder::state_digest() const {
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
  // Channel-key order, arrival order within a channel.
  std::vector<const InFlight*> pending;
  pending.reserve(in_flight_.size());
  for (const InFlight& entry : in_flight_) pending.push_back(&entry);
  std::stable_sort(pending.begin(), pending.end(),
                   [](const InFlight* x, const InFlight* y) { return x->key_less(*y); });
  static constexpr const char* kLabels[] = {"put_issue", "put_ack", "get_issue", "get_merge",
                                            "unlock_release"};
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const InFlight& entry = *pending[i];
    if (i == 0 || !pending[i - 1]->same_key(entry)) {
      if (i > 0) out << "\n";
      if (entry.channel == Channel::kSignal) {
        out << "signal " << entry.a << "->" << entry.b << " t" << entry.c << ":";
      } else {
        out << kLabels[static_cast<std::size_t>(entry.channel)] << " (" << entry.a << ",a"
            << entry.b << "):";
      }
    }
    out << " " << entry.clock.to_string();
  }
  if (!pending.empty()) out << "\n";
  for (const core::RaceReport& report : result_.reports) {
    out << "race a" << report.area << " by r" << report.accessor << " "
        << (report.kind == core::AccessKind::kWrite ? "W" : "R") << " vs "
        << (report.against == core::ComparedAgainst::kW ? "W" : "V") << " "
        << report.accessor_clock.to_string() << " | "
        << report.stored_clock.to_string() << "\n";
  }
  return out.str();
}

std::string Folder::epoch_digest(clocks::Epoch epoch) {
  if (!epoch.valid()) return "full";
  return std::to_string(epoch.rank) + "@" + std::to_string(epoch.value);
}

ReplayResult replay_fold(const Log& log, core::DetectorMode mode,
                         Folder::Observer observer) {
  Folder folder(log, mode, std::move(observer));
  for (const Event& event : log.events) {
    if (!folder.step(event)) break;
  }
  return std::move(folder).finish(log.live.completed, log.live.stuck_ranks);
}

std::string replay_state_digest(const Log& log, core::DetectorMode mode) {
  Folder folder(log, mode);
  for (const Event& event : log.events) {
    if (!folder.step(event)) break;
  }
  if (!folder.ok()) return folder.error();
  return folder.state_digest();
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
