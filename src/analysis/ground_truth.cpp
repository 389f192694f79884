#include "analysis/ground_truth.hpp"

#include <algorithm>
#include <map>

#include "util/assert.hpp"

namespace dsmr::analysis {

namespace {

/// Events of one area in application order (unapplied events excluded).
using AreaEvents = std::vector<const core::AccessEvent*>;

std::map<AreaKey, AreaEvents> by_area_in_apply_order(const core::EventLog& log,
                                                     std::uint64_t* unapplied) {
  std::map<AreaKey, AreaEvents> groups;
  for (const auto& event : log.events()) {
    if (event.apply_seq == 0) {
      if (unapplied) ++*unapplied;
      continue;
    }
    groups[{event.home, event.area}].push_back(&event);
  }
  for (auto& [key, events] : groups) {
    (void)key;
    std::sort(events.begin(), events.end(),
              [](const core::AccessEvent* a, const core::AccessEvent* b) {
                return a->apply_seq < b->apply_seq;
              });
  }
  return groups;
}

bool conflicting(const core::AccessEvent& a, const core::AccessEvent& b) {
  return a.kind == core::AccessKind::kWrite || b.kind == core::AccessKind::kWrite;
}

/// race(a, b) for a applied before b — see the header.
bool races(const core::AccessEvent& a, const core::AccessEvent& b) {
  return a.rank != b.rank && !a.apply_clock.dominated_by(b.issue_clock);
}

}  // namespace

GroundTruth compute_ground_truth(const core::EventLog& log) {
  GroundTruth truth;
  const auto groups = by_area_in_apply_order(log, &truth.unapplied_events);
  for (const auto& [key, events] : groups) {
    for (std::size_t i = 0; i < events.size(); ++i) {
      for (std::size_t j = i + 1; j < events.size(); ++j) {
        const auto& a = *events[i];
        const auto& b = *events[j];
        if (!conflicting(a, b) || a.rank == b.rank) continue;
        ++truth.conflicting_pairs;
        if (races(a, b)) {
          truth.pairs.insert({std::min(a.id, b.id), std::max(a.id, b.id)});
          truth.racy_areas.insert(key);
        } else {
          ++truth.ordered_pairs;
        }
      }
    }
  }
  return truth;
}

std::vector<TruncationPoint> truncation_sweep(const core::EventLog& log,
                                              std::size_t nprocs) {
  const auto groups = by_area_in_apply_order(log, nullptr);
  std::vector<TruncationPoint> sweep;
  for (std::size_t k = 1; k <= nprocs; ++k) {
    TruncationPoint point;
    point.k = k;
    for (const auto& [key, events] : groups) {
      (void)key;
      for (std::size_t i = 0; i < events.size(); ++i) {
        for (std::size_t j = i + 1; j < events.size(); ++j) {
          const auto& a = *events[i];
          const auto& b = *events[j];
          if (!conflicting(a, b) || a.rank == b.rank) continue;
          if (!races(a, b)) continue;
          // A genuine race: still visible with width-k clocks?
          if (!a.apply_clock.truncated(k).dominated_by(b.issue_clock.truncated(k))) {
            ++point.detected;
          } else {
            ++point.missed;
          }
        }
      }
    }
    sweep.push_back(point);
  }
  return sweep;
}

ReplayResult replay_online(const core::EventLog& log, core::DetectorMode mode,
                           bool with_oracle) {
  ReplayResult result;
  const auto groups = by_area_in_apply_order(log, nullptr);
  for (const auto& [key, events] : groups) {
    clocks::VectorClock v, w;
    if (!events.empty()) {
      v = clocks::VectorClock(events.front()->issue_clock.size());
      w = v;
    }
    std::uint64_t last_access = 0, last_write = 0;
    Rank last_access_rank = kInvalidRank, last_write_rank = kInvalidRank;
    for (const auto* event : events) {
      // The stored clocks are home-NIC apply clocks — event clocks of the
      // area's home rank — so the replay rides the same epoch fast path as
      // the live detector (unless the caller asked for the oracle).
      const core::StoredClocks stored{v, w, last_access_rank, last_write_rank,
                                      clocks::Epoch::of_event(key.first, v),
                                      clocks::Epoch::of_event(key.first, w)};
      const auto verdict =
          with_oracle
              ? core::check_access_oracle(mode, event->kind, event->rank,
                                          event->issue_clock, stored)
              : core::check_access(mode, event->kind, event->rank,
                                   event->issue_clock, stored);
      if (verdict.race) {
        result.flagged_events.insert(event->id);
        const std::uint64_t prior = verdict.against == core::ComparedAgainst::kW
                                        ? last_write
                                        : last_access;
        if (prior != 0) {
          result.pairs.insert({std::min(prior, event->id), std::max(prior, event->id)});
        }
      }
      // Mirror the home NIC's apply: store the post-event clock.
      v = event->apply_clock;
      last_access = event->id;
      last_access_rank = event->rank;
      if (event->kind == core::AccessKind::kWrite) {
        w = event->apply_clock;
        last_write = event->id;
        last_write_rank = event->rank;
      }
    }
  }
  return result;
}

std::set<RacePair> reported_pairs(const core::RaceLog& races) {
  std::set<RacePair> pairs;
  for (const auto& report : races.reports()) {
    if (report.prior_event_id == 0 || report.event_id == 0) continue;
    pairs.insert({std::min(report.prior_event_id, report.event_id),
                  std::max(report.prior_event_id, report.event_id)});
  }
  return pairs;
}

Accuracy evaluate(const core::EventLog& log, const core::RaceLog& races_log) {
  return evaluate(compute_ground_truth(log), races_log);
}

Accuracy evaluate(const GroundTruth& truth, const core::RaceLog& races_log) {
  Accuracy acc;
  acc.truth_pairs = truth.pairs.size();
  acc.truth_areas = truth.racy_areas.size();

  const std::set<RacePair> reported = reported_pairs(races_log);
  std::set<AreaKey> reported_areas;
  for (const auto& report : races_log.reports()) {
    reported_areas.insert({report.home, report.area});
  }
  acc.reported_pairs = reported.size();
  acc.reported_areas = reported_areas.size();
  for (const auto& pair : reported) {
    if (truth.pairs.count(pair) > 0) ++acc.true_reports;
  }
  std::uint64_t covered = 0;
  for (const auto& area : truth.racy_areas) {
    if (reported_areas.count(area) > 0) ++covered;
  }
  acc.true_report_areas = covered;
  return acc;
}

}  // namespace dsmr::analysis
