#include "analysis/ground_truth.hpp"

#include <algorithm>
#include <map>

namespace dsmr::analysis {

namespace {

/// One applied access: what a ground-truth pair compares.
struct Access {
  std::uint64_t id = 0;
  Rank rank = kInvalidRank;
  core::AccessKind kind = core::AccessKind::kRead;
  clocks::VectorClock issue_clock;
  clocks::VectorClock apply_clock;
};

/// A log's applied accesses, per area in application order — the fold's
/// order — plus the count of accesses the log opened but never applied.
struct History {
  std::map<AreaKey, std::vector<Access>> areas;
  std::uint64_t unapplied = 0;
};

History fold_history(const record::Log& log) {
  History history;
  for (const record::Event& e : log.events) history.unapplied += record::opens_access(e.kind);
  // Detection off: the fold only has to re-derive the clocks. It applies
  // an access only after its opening event.
  record::replay_fold(log, core::DetectorMode::kOff,
                      [&](const record::AppliedAccess& access) {
                        --history.unapplied;
                        history.areas[{access.home, access.home_id}].push_back(
                            Access{access.id, access.rank, access.kind, access.issue,
                                   access.applied});
                      });
  return history;
}

bool conflicting(const Access& a, const Access& b) {
  return a.kind == core::AccessKind::kWrite || b.kind == core::AccessKind::kWrite;
}

/// race(a, b) for a applied before b — see the header.
bool races(const Access& a, const Access& b) {
  return a.rank != b.rank && !a.apply_clock.dominated_by(b.issue_clock);
}

/// Calls `on_pair(a, b)` for every conflicting cross-rank pair of one
/// area, a applied before b.
template <typename OnPair>
void for_each_conflict(const std::vector<Access>& accesses, OnPair&& on_pair) {
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    for (std::size_t j = i + 1; j < accesses.size(); ++j) {
      const Access& a = accesses[i];
      const Access& b = accesses[j];
      if (!conflicting(a, b) || a.rank == b.rank) continue;
      on_pair(a, b);
    }
  }
}

}  // namespace

GroundTruth compute_ground_truth(const record::Log& log) {
  const History history = fold_history(log);
  GroundTruth truth;
  truth.unapplied_events = history.unapplied;
  for (const auto& [key, accesses] : history.areas) {
    for_each_conflict(accesses, [&](const Access& a, const Access& b) {
      ++truth.conflicting_pairs;
      if (races(a, b)) {
        truth.pairs.insert({std::min(a.id, b.id), std::max(a.id, b.id)});
        truth.racy_areas.insert(key);
      } else {
        ++truth.ordered_pairs;
      }
    });
  }
  return truth;
}

std::vector<TruncationPoint> truncation_sweep(const record::Log& log,
                                              std::size_t nprocs) {
  const History history = fold_history(log);
  std::vector<TruncationPoint> sweep;
  for (std::size_t k = 1; k <= nprocs; ++k) {
    TruncationPoint point;
    point.k = k;
    for (const auto& [key, accesses] : history.areas) {
      (void)key;
      for_each_conflict(accesses, [&](const Access& a, const Access& b) {
        if (!races(a, b)) return;
        // A genuine race: still visible with width-k clocks?
        if (!a.apply_clock.truncated(k).dominated_by(b.issue_clock.truncated(k))) {
          ++point.detected;
        } else {
          ++point.missed;
        }
      });
    }
    sweep.push_back(point);
  }
  return sweep;
}

void Verdicts::add(std::uint64_t prior, std::uint64_t id) {
  if (id == 0) return;
  flagged.insert(id);
  if (prior != 0) pairs.insert({std::min(prior, id), std::max(prior, id)});
}

Verdicts verdicts_of(const std::vector<core::RaceReport>& reports) {
  Verdicts verdicts;
  for (const auto& report : reports) verdicts.add(report.prior_event_id, report.event_id);
  return verdicts;
}

void add_oracle_verdict(Verdicts& out, core::DetectorMode mode,
                        const record::AppliedAccess& access) {
  const core::Verdict verdict = core::check_access_oracle(mode, access.kind, access.rank,
                                                          access.issue, access.stored);
  if (!verdict.race) return;
  out.add(verdict.against == core::ComparedAgainst::kW ? access.prior_write
                                                       : access.prior_access,
          access.id);
}

Accuracy evaluate(const record::Log& log, const core::RaceLog& races_log) {
  return evaluate(compute_ground_truth(log), races_log);
}

Accuracy evaluate(const GroundTruth& truth, const core::RaceLog& races_log) {
  Accuracy acc;
  acc.truth_pairs = truth.pairs.size();
  acc.truth_areas = truth.racy_areas.size();

  const std::set<RacePair> reported = verdicts_of(races_log.reports()).pairs;
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
