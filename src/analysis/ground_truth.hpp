// Offline ground truth: the full happens-before analysis of a recorded run.
//
// The paper's online algorithm compares each access only against the area's
// *latest* access/write clocks. This module recomputes races over *all*
// conflicting pairs, giving:
//  * a soundness oracle — every online report must correspond to a truly
//    racing conflicting pair (precision 1.0, asserted by property tests);
//  * a completeness measure — the online scheme's pairwise recall (< 1 in
//    general: a race hidden behind a later ordered access is missed);
//  * the §IV.C clock-truncation ablation: clocks projected onto k < n
//    components can only lose concurrency, so truncation produces false
//    negatives (never false positives) — measured per k.
//
// Race definition (matching the model's semantics): for two conflicting
// accesses applied at the home as a then b,
//
//    race(a, b)  ⇔  rank(a) ≠ rank(b)  ∧  ¬(apply_clock(a) ≤ issue_clock(b))
//
// i.e. b's initiator could not have known a's application, so a legal
// execution exists in which the applications land in the other order.
// Same-rank pairs are ordered by program order and the FIFO channel. This is
// exactly the predicate the online detector evaluates against the latest
// access — hence the structural precision guarantee.
//
// Every analysis here is a fold of the run's ordering log (record/log.hpp):
// the log keeps only the order, and record::Folder re-derives each access's
// issue and apply clocks on the way (RecPlay, PAPERS.md), handing them to
// an observer. So the analyses run on any log — sim runs on every
// transport, threaded runs, explorer interleavings — and name accesses by
// log index (record::opens_access).
#pragma once

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "core/race_report.hpp"
#include "record/log.hpp"
#include "record/replay.hpp"
#include "util/types.hpp"

namespace dsmr::analysis {

/// An unordered conflicting pair of accesses (ids, first < second).
struct RacePair {
  std::uint64_t first = 0;
  std::uint64_t second = 0;

  bool operator<(const RacePair& other) const {
    return std::pair{first, second} < std::pair{other.first, other.second};
  }
  bool operator==(const RacePair& other) const = default;
};

/// A shared datum's identity: (home rank, AreaId on that home) — the
/// coordinates live race reports use.
using AreaKey = std::pair<Rank, std::uint32_t>;

struct GroundTruth {
  std::set<RacePair> pairs;             ///< all truly racing conflicting pairs.
  std::set<AreaKey> racy_areas;         ///< areas with at least one racing pair.
  std::uint64_t conflicting_pairs = 0;  ///< pairs examined (≥1 write, same area,
                                        ///< different ranks).
  std::uint64_t ordered_pairs = 0;      ///< conflicting but causally ordered.
  std::uint64_t unapplied_events = 0;   ///< accesses never applied (crashed run).
};

/// Enumerates all ground-truth races. O(m²) per area — intended for
/// test/bench scale, as is the paper's debugging scenario ("typically,
/// about 10 processes").
GroundTruth compute_ground_truth(const record::Log& log);

/// §IV.C ablation: the same analysis with every clock truncated to its
/// first `k` components. Projection preserves domination, so truncation can
/// only *miss* races — `missed` counts the false negatives at width k.
struct TruncationPoint {
  std::size_t k = 0;
  std::uint64_t detected = 0;  ///< racing pairs still seen at width k.
  std::uint64_t missed = 0;    ///< full races invisible at width k.
};
std::vector<TruncationPoint> truncation_sweep(const record::Log& log,
                                              std::size_t nprocs);

/// A set of race reports as unordered (prior, current) access pairs plus
/// the flagged accesses. A report whose prior is unknown (id 0) flags its
/// access but forms no pair. The one definition behind the accuracy
/// metrics and the conformance invariants, so they cannot drift apart.
struct Verdicts {
  std::set<RacePair> pairs;
  std::set<std::uint64_t> flagged;

  void add(std::uint64_t prior, std::uint64_t id);
  bool operator==(const Verdicts&) const = default;
};
Verdicts verdicts_of(const std::vector<core::RaceReport>& reports);

/// Adds the full-vector-clock oracle's verdict (core::check_access_oracle)
/// on `access`, under `mode`, to `out`: a record::Folder observer body. A
/// fold's own reports come from the production epoch fast path, so the two
/// must be identical on every log.
void add_oracle_verdict(Verdicts& out, core::DetectorMode mode,
                        const record::AppliedAccess& access);

/// Online-vs-truth accuracy.
struct Accuracy {
  std::uint64_t truth_pairs = 0;
  std::uint64_t reported_pairs = 0;   ///< unique (prior, current) pairs reported.
  std::uint64_t true_reports = 0;     ///< reported pairs present in ground truth.
  std::uint64_t truth_areas = 0;
  std::uint64_t reported_areas = 0;   ///< areas flagged online.
  std::uint64_t true_report_areas = 0;  ///< truth areas that were flagged.

  double precision() const {
    return reported_pairs == 0 ? 1.0
                               : static_cast<double>(true_reports) /
                                     static_cast<double>(reported_pairs);
  }
  double pair_recall() const {
    return truth_pairs == 0 ? 1.0
                            : static_cast<double>(true_reports) /
                                  static_cast<double>(truth_pairs);
  }
  /// "Did the detector flag the datum at all" — the metric that matters for
  /// debugging, and the one where the paper's scheme shines.
  double area_recall() const {
    return truth_areas == 0 ? 1.0
                            : static_cast<double>(true_report_areas) /
                                  static_cast<double>(truth_areas);
  }
};
/// Scores the live reports of the run `log` recorded.
Accuracy evaluate(const record::Log& log, const core::RaceLog& races);

/// As above with a precomputed ground truth — compute_ground_truth is the
/// O(m²)-per-area pass, so callers that already hold a GroundTruth (the
/// sweep and conformance layers) must not pay it twice per run.
Accuracy evaluate(const GroundTruth& truth, const core::RaceLog& races);

}  // namespace dsmr::analysis
