// Unit tests for the race predicate (the kernel of Algorithms 1-2) and the
// report/event logs.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/race_report.hpp"
#include "core/rules.hpp"
#include "util/rng.hpp"

namespace dsmr::core {
namespace {

using clocks::VectorClock;

const VectorClock kZero3{0, 0, 0};

/// Helper: run the predicate with distinct accessor/prior ranks so the
/// same-rank FIFO exemption stays out of the way (tested separately).
Verdict check(DetectorMode mode, AccessKind kind, const VectorClock& accessor,
              const VectorClock& v, const VectorClock& w) {
  return check_access(mode, kind, /*accessor=*/2, accessor,
                      StoredClocks{v, w, /*last_access_rank=*/0,
                                   /*last_write_rank=*/1});
}

TEST(Rules, OffModeNeverRaces) {
  const VectorClock a{1, 0, 0};
  const VectorClock b{0, 1, 0};
  const auto verdict = check(DetectorMode::kOff, AccessKind::kWrite, a, b, b);
  EXPECT_FALSE(verdict.race);
  EXPECT_EQ(verdict.against, ComparedAgainst::kNone);
}

TEST(Rules, FirstAccessNeverRaces) {
  // Zero stored clocks are dominated by any issue clock.
  const VectorClock accessor{0, 0, 1};
  for (const auto kind : {AccessKind::kRead, AccessKind::kWrite}) {
    const auto verdict = check(DetectorMode::kDualClock, kind, accessor, kZero3, kZero3);
    EXPECT_FALSE(verdict.race);
  }
}

TEST(Rules, WriteComparesAgainstLastAccessClockV) {
  // A write races with any unordered prior access — read or write.
  const VectorClock writer{0, 0, 1};
  const VectorClock v{1, 1, 0};  // someone read/wrote concurrently.
  const VectorClock w = kZero3;  // never written.
  const auto verdict = check(DetectorMode::kDualClock, AccessKind::kWrite, writer, v, w);
  EXPECT_TRUE(verdict.race);
  EXPECT_EQ(verdict.against, ComparedAgainst::kV);
  EXPECT_EQ(verdict.ordering, clocks::Ordering::kConcurrent);
}

TEST(Rules, ReadComparesAgainstWriteClockW) {
  const VectorClock reader{0, 0, 1};
  const VectorClock v{1, 1, 0};  // a concurrent *read* left its mark in V...
  const VectorClock w = kZero3;  // ...but nothing ever wrote.
  const auto verdict = check(DetectorMode::kDualClock, AccessKind::kRead, reader, v, w);
  // Figure 4: concurrent reads are not a race.
  EXPECT_FALSE(verdict.race);
  EXPECT_EQ(verdict.against, ComparedAgainst::kW);
}

TEST(Rules, ReadRacesWithUnorderedWrite) {
  const VectorClock reader{0, 0, 1};
  const VectorClock w{1, 1, 0};
  const auto verdict = check(DetectorMode::kDualClock, AccessKind::kRead, reader, w, w);
  EXPECT_TRUE(verdict.race);
  EXPECT_EQ(verdict.against, ComparedAgainst::kW);
}

TEST(Rules, OrderedWriteDoesNotRace) {
  const VectorClock writer{2, 1, 1};  // dominates the stored clock.
  const VectorClock stored{1, 1, 0};
  const auto verdict =
      check(DetectorMode::kDualClock, AccessKind::kWrite, writer, stored, stored);
  EXPECT_FALSE(verdict.race);
  EXPECT_EQ(verdict.ordering, clocks::Ordering::kAfter);
}

TEST(Rules, SingleClockFlagsConcurrentReads) {
  // The §IV.D ablation: one clock per area flags read-read concurrency.
  const VectorClock reader{0, 0, 1};
  const VectorClock v{1, 1, 0};
  const auto verdict =
      check(DetectorMode::kSingleClock, AccessKind::kRead, reader, v, kZero3);
  EXPECT_TRUE(verdict.race);
  EXPECT_EQ(verdict.against, ComparedAgainst::kV);
}

TEST(Rules, DualClockSubsumesSingleClockOnWrites) {
  // On writes both modes compare against V: identical verdicts.
  const VectorClock writer{0, 2, 0};
  for (const auto& stored : {VectorClock{1, 0, 0}, VectorClock{0, 1, 0}, kZero3}) {
    const auto dual =
        check(DetectorMode::kDualClock, AccessKind::kWrite, writer, stored, kZero3);
    const auto single =
        check(DetectorMode::kSingleClock, AccessKind::kWrite, writer, stored, kZero3);
    EXPECT_EQ(dual.race, single.race);
  }
}

TEST(Rules, SameRankPriorIsExemptedByFifoOrder) {
  // Two sequential puts by the same process are ordered by program order and
  // the FIFO channel even though the home tick makes their clocks
  // incomparable (unacknowledged puts).
  const VectorClock second_issue{2, 0, 0};        // P0's second put.
  const VectorClock stored{1, 1, 0};              // P0's first put + home tick.
  const auto same = check_access(DetectorMode::kDualClock, AccessKind::kWrite,
                                 /*accessor=*/0, second_issue,
                                 StoredClocks{stored, stored, 0, 0});
  EXPECT_FALSE(same.race);
  // The identical clocks from a *different* rank are a genuine race.
  const auto other = check_access(DetectorMode::kDualClock, AccessKind::kWrite,
                                  /*accessor=*/2, second_issue,
                                  StoredClocks{stored, stored, 0, 0});
  EXPECT_TRUE(other.race);
}

TEST(Rules, PaperFig5aVerdict) {
  // m2's clock 001 against stored 110 (V = W after m1): race.
  const VectorClock stored{1, 1, 0};
  const VectorClock incoming{0, 0, 1};
  EXPECT_TRUE(
      check(DetectorMode::kDualClock, AccessKind::kWrite, incoming, stored, stored).race);
}

TEST(Rules, PaperFig5bVerdict) {
  // m3 (put, clock 132) against V = 110 left by the get chain: ordered.
  const VectorClock v{1, 1, 0};
  const VectorClock incoming{1, 3, 2};
  EXPECT_FALSE(check(DetectorMode::kDualClock, AccessKind::kWrite, incoming, v,
                     VectorClock{0, 0, 0})
                   .race);
}

TEST(RaceLog, RecordsAssignsIdsAndNotifies) {
  RaceLog log;
  int notified = 0;
  log.add_observer([&](const RaceReport& r) {
    ++notified;
    EXPECT_GT(r.id, 0u);
  });
  RaceReport report;
  report.area_name = "x";
  log.record(report);
  log.record(report);
  EXPECT_EQ(log.count(), 2u);
  EXPECT_EQ(notified, 2);
  EXPECT_EQ(log.reports()[0].id, 1u);
  EXPECT_EQ(log.reports()[1].id, 2u);
}

TEST(RaceLog, UniqueByAreaCollapses) {
  RaceLog log;
  RaceReport a;
  a.home = 0;
  a.area = 1;
  RaceReport b = a;
  RaceReport c;
  c.home = 1;
  c.area = 1;
  log.record(a);
  log.record(b);
  log.record(c);
  EXPECT_EQ(log.unique_by_area().size(), 2u);
}

TEST(RaceReport, DescribeMentionsBothClocks) {
  RaceReport report;
  report.kind = AccessKind::kWrite;
  report.accessor = 2;
  report.home = 1;
  report.area_name = "x";
  report.accessor_clock = VectorClock{0, 0, 1};
  report.stored_clock = VectorClock{1, 1, 0};
  report.against = ComparedAgainst::kV;
  const std::string text = report.describe();
  EXPECT_NE(text.find("001"), std::string::npos);
  EXPECT_NE(text.find("110"), std::string::npos);
  EXPECT_NE(text.find("write"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Epoch fast path vs the full-vector-clock oracle.
// ---------------------------------------------------------------------------

TEST(EpochFastPath, DecidesOrderedPairsWithoutFullComparison) {
  // Stored = home's (rank 1) post-event clock; accessor saw it (acked put)
  // and ticked: ordered, no race — decidable from components 1 and 2 alone.
  const VectorClock stored{1, 2, 0};    // event clock of rank 1.
  const VectorClock accessor{1, 2, 1};  // rank 2 post-tick, knows stored.
  const StoredClocks with_epoch{stored, stored, 0, 0, clocks::Epoch::of_event(1, stored),
                                clocks::Epoch::of_event(1, stored)};
  const auto fast = check_access(DetectorMode::kDualClock, AccessKind::kWrite,
                                 /*accessor=*/2, accessor, with_epoch);
  EXPECT_FALSE(fast.race);
  EXPECT_EQ(fast.ordering, clocks::Ordering::kAfter);
  EXPECT_EQ(fast, check_access_oracle(DetectorMode::kDualClock, AccessKind::kWrite, 2,
                                      accessor, with_epoch));
}

TEST(EpochFastPath, ZeroStoredClockIsTheZeroEpoch) {
  const VectorClock zero{0, 0, 0};
  const VectorClock accessor{0, 0, 1};
  const StoredClocks with_epoch{zero, zero, kInvalidRank, kInvalidRank,
                                clocks::Epoch{1, 0}, clocks::Epoch{1, 0}};
  for (const auto kind : {AccessKind::kRead, AccessKind::kWrite}) {
    const auto fast =
        check_access(DetectorMode::kDualClock, kind, 2, accessor, with_epoch);
    EXPECT_FALSE(fast.race);
    EXPECT_EQ(fast.ordering, clocks::Ordering::kAfter);
  }
}

TEST(EpochFastPath, InvalidEpochFallsBackToFullComparison) {
  const VectorClock stored{1, 1, 0};
  const VectorClock accessor{0, 0, 1};
  // No epochs: identical behavior to the oracle on the slow path.
  const StoredClocks no_epoch{stored, stored, 0, 1};
  const auto slow =
      check_access(DetectorMode::kDualClock, AccessKind::kWrite, 2, accessor, no_epoch);
  EXPECT_TRUE(slow.race);
  EXPECT_EQ(slow, check_access_oracle(DetectorMode::kDualClock, AccessKind::kWrite, 2,
                                      accessor, no_epoch));
}

TEST(EpochFastPath, InconsistentEpochWitnessFallsBack) {
  // An epoch whose value disagrees with the stored clock's component must
  // not be trusted: the fast path declines and the full comparison decides.
  const VectorClock stored{1, 1, 0};
  const VectorClock accessor{0, 0, 1};
  const StoredClocks stale{stored, stored, 0, 1, clocks::Epoch{1, 99},
                           clocks::Epoch{1, 99}};
  const auto verdict =
      check_access(DetectorMode::kDualClock, AccessKind::kWrite, 2, accessor, stale);
  EXPECT_EQ(verdict, check_access_oracle(DetectorMode::kDualClock, AccessKind::kWrite, 2,
                                         accessor, stale));
}

/// Random causal histories: `nprocs` processes tick locally and exchange
/// messages (tick + merge on receive), producing genuine event clocks. Every
/// (stored event clock at h, accessor event clock at i) pair — with epochs —
/// must get the bit-identical Verdict from the fast path and the oracle, for
/// every mode and access kind. This is the soundness property the O(1) path
/// rests on (Fidge/Mattern), exercised over thousands of interleavings.
TEST(EpochFastPath, PropertyIdenticalToOracleOnRandomCausalHistories) {
  util::Rng rng(2026);
  for (int trial = 0; trial < 200; ++trial) {
    const auto nprocs = static_cast<std::size_t>(rng.range(2, 6));
    std::vector<VectorClock> process_clock(nprocs, VectorClock(nprocs));
    // Event history: (rank, post-tick clock) — the only clocks the
    // protocols ever store or compare.
    std::vector<std::pair<Rank, VectorClock>> events;
    const int steps = static_cast<int>(rng.range(5, 40));
    for (int s = 0; s < steps; ++s) {
      const auto actor = static_cast<std::size_t>(rng.below(nprocs));
      if (rng.chance(0.4) && nprocs > 1) {
        // Message: merge a random earlier event's clock (receive), tick.
        if (!events.empty()) {
          const auto& [from, clk] = events[rng.below(events.size())];
          (void)from;
          process_clock[actor].merge_from(clk);
        }
      }
      process_clock[actor].tick(static_cast<Rank>(actor));
      events.emplace_back(static_cast<Rank>(actor), process_clock[actor]);
    }
    // Compare random event-clock pairs through both implementations.
    for (int probe = 0; probe < 32; ++probe) {
      const auto& [h, stored_v] = events[rng.below(events.size())];
      const auto& [h2, stored_w] = events[rng.below(events.size())];
      const auto& [accessor, issue] = events[rng.below(events.size())];
      const Rank prior_access = static_cast<Rank>(rng.range(-1, static_cast<std::int64_t>(nprocs) - 1));
      const Rank prior_write = static_cast<Rank>(rng.range(-1, static_cast<std::int64_t>(nprocs) - 1));
      const StoredClocks stored{stored_v, stored_w, prior_access, prior_write,
                                clocks::Epoch::of_event(h, stored_v),
                                clocks::Epoch::of_event(h2, stored_w)};
      for (const auto mode : {DetectorMode::kOff, DetectorMode::kSingleClock,
                              DetectorMode::kDualClock}) {
        for (const auto kind : {AccessKind::kRead, AccessKind::kWrite}) {
          const auto fast = check_access(mode, kind, accessor, issue, stored);
          const auto oracle = check_access_oracle(mode, kind, accessor, issue, stored);
          ASSERT_EQ(fast, oracle)
              << "trial " << trial << " probe " << probe << " mode "
              << to_string(mode) << " kind " << to_string(kind) << " accessor P"
              << accessor << " clk " << issue.to_string() << " vs stored "
              << stored_v.to_string() << "/" << stored_w.to_string();
        }
      }
    }
  }
}

}  // namespace
}  // namespace dsmr::core
