// Unit + property tests for the logical clock library — the mathematical
// heart of the paper's detection scheme (Lemma 1 / Corollary 1).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "clocks/epoch.hpp"
#include "clocks/lamport.hpp"
#include "clocks/matrix_clock.hpp"
#include "clocks/ordering.hpp"
#include "clocks/vector_clock.hpp"
#include "util/rng.hpp"

namespace dsmr::clocks {
namespace {

TEST(Lamport, TickIncreases) {
  LamportClock c;
  EXPECT_EQ(c.time(), 0u);
  EXPECT_EQ(c.tick(), 1u);
  EXPECT_EQ(c.tick(), 2u);
}

TEST(Lamport, MergeTakesMaxPlusOne) {
  LamportClock c;
  c.tick();                      // 1
  EXPECT_EQ(c.merge(10), 11u);   // max(1,10)+1
  EXPECT_EQ(c.merge(3), 12u);    // max(11,3)+1
}

TEST(VectorClock, ZeroClockIsDominatedByEverything) {
  const VectorClock zero(3);
  const VectorClock some{1, 0, 2};
  EXPECT_TRUE(zero.dominated_by(some));
  EXPECT_TRUE(zero.dominated_by(zero));
  EXPECT_EQ(zero.compare(some), Ordering::kBefore);
}

TEST(VectorClock, PaperFigure5aComparison) {
  // Fig. 5a: P1's clock after m1 is 110; m2 arrives carrying 001.
  // 110 × 001: concurrent — the detected race.
  const VectorClock stored{1, 1, 0};
  const VectorClock incoming{0, 0, 1};
  EXPECT_EQ(stored.compare(incoming), Ordering::kConcurrent);
  EXPECT_TRUE(stored.concurrent_with(incoming));
}

TEST(VectorClock, PaperFigure5bComparison) {
  // Fig. 5b: m3 carries 132 and meets state whose clock is 110: ordered.
  const VectorClock stored{1, 1, 0};
  const VectorClock incoming{1, 3, 2};
  EXPECT_EQ(stored.compare(incoming), Ordering::kBefore);
  EXPECT_FALSE(stored.concurrent_with(incoming));
}

TEST(VectorClock, PaperFigure5cComparison) {
  // Fig. 5c: W(x) = 1100 (after m1), m4 carries 2022: concurrent — race.
  const VectorClock stored{1, 1, 0, 0};
  const VectorClock incoming{2, 0, 2, 2};
  EXPECT_EQ(stored.compare(incoming), Ordering::kConcurrent);
}

TEST(VectorClock, EqualClocksAreEqual) {
  const VectorClock a{2, 3};
  const VectorClock b{2, 3};
  EXPECT_EQ(a.compare(b), Ordering::kEqual);
  EXPECT_FALSE(a.concurrent_with(b));
}

TEST(VectorClock, TickAdvancesOwnComponentOnly) {
  VectorClock c(3);
  c.tick(1);
  EXPECT_EQ(c[0], 0u);
  EXPECT_EQ(c[1], 1u);
  EXPECT_EQ(c[2], 0u);
}

TEST(VectorClock, MergeIsComponentwiseMax) {
  VectorClock a{1, 5, 0};
  const VectorClock b{3, 2, 0};
  a.merge_from(b);
  EXPECT_EQ(a, (VectorClock{3, 5, 0}));
}

TEST(VectorClock, MaxClockFreeFunction) {
  const VectorClock a{1, 5, 0};
  const VectorClock b{3, 2, 4};
  EXPECT_EQ(max_clock(a, b), (VectorClock{3, 5, 4}));
  // Algorithm 4 is commutative and idempotent.
  EXPECT_EQ(max_clock(a, b), max_clock(b, a));
  EXPECT_EQ(max_clock(a, a), a);
}

TEST(VectorClock, EncodeDecodeRoundTrip) {
  const VectorClock original{7, 0, 1234567890123ULL, 42};
  std::vector<std::byte> wire;
  original.encode(wire);
  EXPECT_EQ(wire.size(), original.fixed_wire_size());
  std::size_t offset = 0;
  const VectorClock decoded = VectorClock::decode(wire, 4, &offset);
  EXPECT_EQ(decoded, original);
  EXPECT_EQ(offset, wire.size());
}

TEST(VectorClock, EncodeAppendsTwoClocks) {
  const VectorClock a{1, 2};
  const VectorClock b{3, 4};
  std::vector<std::byte> wire;
  a.encode(wire);
  b.encode(wire);
  std::size_t offset = 0;
  EXPECT_EQ(VectorClock::decode(wire, 2, &offset), a);
  EXPECT_EQ(VectorClock::decode(wire, 2, &offset), b);
}

TEST(VectorClock, ToStringCompactLikeThePaper) {
  EXPECT_EQ((VectorClock{1, 1, 0}).to_string(), "110");
  EXPECT_EQ((VectorClock{2, 0, 2, 2}).to_string(), "2022");
  EXPECT_EQ((VectorClock{12, 3}).to_string(), "[12,3]");
}

TEST(VectorClock, TruncationPreservesDomination) {
  // Projection can only *lose* concurrency, never order (§IV.C ablation).
  const VectorClock a{1, 2, 3};
  const VectorClock b{2, 2, 4};
  ASSERT_EQ(a.compare(b), Ordering::kBefore);
  for (std::size_t k = 1; k <= 3; ++k) {
    EXPECT_NE(a.truncated(k).compare(b.truncated(k)), Ordering::kConcurrent);
  }
}

TEST(VectorClock, TruncationCanHideConcurrency) {
  const VectorClock a{1, 0, 1};
  const VectorClock b{1, 1, 0};
  ASSERT_TRUE(a.concurrent_with(b));
  // At width 1 both project to "1": equal, concurrency invisible.
  EXPECT_EQ(a.truncated(1).compare(b.truncated(1)), Ordering::kEqual);
}

TEST(VectorClock, WireSizeIsLinearInProcessCount) {
  // §IV.C / §V.A: the clock must have one entry per process. The compact
  // encoding still pays per entry (one varint each), the fixed layout a
  // full word each.
  for (std::size_t n : {1u, 4u, 10u, 32u}) {
    EXPECT_EQ(VectorClock(n).fixed_wire_size(), n * sizeof(ClockValue));
    EXPECT_EQ(VectorClock(n).wire_size(), n);  // zero components: 1 byte each.
  }
}

TEST(VectorClock, VarintSizeBoundaries) {
  EXPECT_EQ(VectorClock::varint_size(0), 1u);
  EXPECT_EQ(VectorClock::varint_size(127), 1u);
  EXPECT_EQ(VectorClock::varint_size(128), 2u);
  EXPECT_EQ(VectorClock::varint_size(16383), 2u);
  EXPECT_EQ(VectorClock::varint_size(16384), 3u);
  EXPECT_EQ(VectorClock::varint_size(~ClockValue{0}), 10u);
}

TEST(VectorClock, CompactEncodeDecodeRoundTrip) {
  const VectorClock original{7, 0, 1234567890123ULL, 42, 127, 128, ~ClockValue{0}};
  std::vector<std::byte> wire;
  original.encode_compact(wire);
  EXPECT_EQ(wire.size(), original.wire_size());
  std::size_t offset = 0;
  const VectorClock decoded = VectorClock::decode_compact(wire, original.size(), &offset);
  EXPECT_EQ(decoded, original);
  EXPECT_EQ(offset, wire.size());
}

TEST(VectorClock, CompactEncodeAppendsTwoClocks) {
  const VectorClock a{1, 200};
  const VectorClock b{300, 4};
  std::vector<std::byte> wire;
  a.encode_compact(wire);
  b.encode_compact(wire);
  EXPECT_EQ(wire.size(), a.wire_size() + b.wire_size());
  std::size_t offset = 0;
  EXPECT_EQ(VectorClock::decode_compact(wire, 2, &offset), a);
  EXPECT_EQ(VectorClock::decode_compact(wire, 2, &offset), b);
}

TEST(VectorClock, CompactBeatsFixedAtDebuggingScale) {
  // The point of the varint format: clocks at the paper's ~10-process
  // debugging scale carry small counters, so the wire cost collapses.
  VectorClock clock(10);
  for (std::size_t i = 0; i < clock.size(); ++i) clock[i] = i * 7;  // < 128
  EXPECT_EQ(clock.wire_size(), 10u);
  EXPECT_EQ(clock.fixed_wire_size(), 80u);
}

TEST(VectorClock, InlineAndHeapRepresentationsAgree) {
  // n <= kInlineCapacity lives inline; wider clocks spill. Semantics must
  // not depend on the representation.
  const VectorClock small{1, 2, 3, 4};
  const VectorClock big{1, 2, 3, 4, 5, 6};
  ASSERT_LE(small.size(), VectorClock::kInlineCapacity);
  ASSERT_GT(big.size(), VectorClock::kInlineCapacity);

  VectorClock small_copy = small;
  EXPECT_EQ(small_copy, small);
  VectorClock big_copy = big;
  EXPECT_EQ(big_copy, big);

  VectorClock small_moved = std::move(small_copy);
  EXPECT_EQ(small_moved, small);
  VectorClock big_moved = std::move(big_copy);
  EXPECT_EQ(big_moved, big);

  big_moved.tick(5);
  EXPECT_EQ(big_moved[5], 7u);
  small_moved.tick(0);
  EXPECT_EQ(small_moved[0], 2u);

  // Mixed-width equality is simply false, not UB.
  EXPECT_FALSE(small == big);
}

TEST(Epoch, OfEventReadsTheOwnersComponent) {
  const VectorClock clock{3, 7, 2};
  const Epoch e = Epoch::of_event(1, clock);
  EXPECT_TRUE(e.valid());
  EXPECT_EQ(e.rank, 1);
  EXPECT_EQ(e.value, 7u);
  EXPECT_FALSE(Epoch::of_event(5, clock).valid());   // out of range.
  EXPECT_FALSE(Epoch::of_event(-1, clock).valid());
  EXPECT_EQ(e.to_string(), "P1@7");
  EXPECT_EQ(Epoch{}.to_string(), "-");
}

// --- DSMR_ASSERT bounds checks (always-on, PR-1 hardening) ----------------

using VectorClockDeathTest = ::testing::Test;

TEST(VectorClockDeathTest, ConstIndexOutOfBoundsPanics) {
  const VectorClock clock{1, 2, 3};
  EXPECT_DEATH((void)clock[3], "assert failed");
  EXPECT_DEATH((void)clock[1000], "assert failed");
}

TEST(VectorClockDeathTest, MutableIndexOutOfBoundsPanics) {
  VectorClock clock{1, 2, 3};
  EXPECT_DEATH(clock[3] = 5, "assert failed");
}

TEST(VectorClockDeathTest, EmptyClockHasNoComponentZero) {
  const VectorClock empty;
  EXPECT_DEATH((void)empty[0], "assert failed");
}

TEST(VectorClockDeathTest, TickOutOfRangePanics) {
  VectorClock clock{1, 2, 3};
  EXPECT_DEATH(clock.tick(3), "assert failed");
  EXPECT_DEATH(clock.tick(-1), "assert failed");
}

TEST(VectorClockDeathTest, HeapBackedClockChecksBoundsToo) {
  // The bounds check must survive the inline→heap representation switch.
  VectorClock clock(VectorClock::kInlineCapacity + 3);
  EXPECT_DEATH((void)clock[VectorClock::kInlineCapacity + 3], "assert failed");
  EXPECT_DEATH(clock.tick(static_cast<Rank>(VectorClock::kInlineCapacity + 3)),
               "assert failed");
}

// --- property sweep: partial-order laws on random clock populations -------

struct ClockLawsParam {
  std::uint64_t seed;
  std::size_t n;
};

class ClockLaws : public ::testing::TestWithParam<ClockLawsParam> {
 protected:
  std::vector<VectorClock> sample(std::size_t count) {
    util::Rng rng(GetParam().seed);
    std::vector<VectorClock> clocks;
    for (std::size_t i = 0; i < count; ++i) {
      VectorClock c(GetParam().n);
      for (std::size_t j = 0; j < GetParam().n; ++j) {
        c[j] = rng.below(6);
      }
      clocks.push_back(std::move(c));
    }
    return clocks;
  }
};

TEST_P(ClockLaws, CompareIsAntisymmetricAndConsistent) {
  const auto clocks = sample(24);
  for (const auto& a : clocks) {
    for (const auto& b : clocks) {
      const Ordering ab = a.compare(b);
      const Ordering ba = b.compare(a);
      switch (ab) {
        case Ordering::kBefore: EXPECT_EQ(ba, Ordering::kAfter); break;
        case Ordering::kAfter: EXPECT_EQ(ba, Ordering::kBefore); break;
        case Ordering::kEqual: EXPECT_EQ(ba, Ordering::kEqual); break;
        case Ordering::kConcurrent: EXPECT_EQ(ba, Ordering::kConcurrent); break;
      }
    }
  }
}

TEST_P(ClockLaws, DominationIsTransitive) {
  const auto clocks = sample(12);
  for (const auto& a : clocks) {
    for (const auto& b : clocks) {
      for (const auto& c : clocks) {
        if (a.dominated_by(b) && b.dominated_by(c)) {
          EXPECT_TRUE(a.dominated_by(c));
        }
      }
    }
  }
}

TEST_P(ClockLaws, MergeIsLeastUpperBound) {
  const auto clocks = sample(16);
  for (const auto& a : clocks) {
    for (const auto& b : clocks) {
      const VectorClock lub = max_clock(a, b);
      EXPECT_TRUE(a.dominated_by(lub));
      EXPECT_TRUE(b.dominated_by(lub));
      // Minimality: any upper bound dominates the merge.
      for (const auto& u : clocks) {
        if (a.dominated_by(u) && b.dominated_by(u)) {
          EXPECT_TRUE(lub.dominated_by(u));
        }
      }
    }
  }
}

TEST_P(ClockLaws, TruncationNeverCreatesConcurrency) {
  const auto clocks = sample(16);
  for (const auto& a : clocks) {
    for (const auto& b : clocks) {
      if (a.concurrent_with(b)) continue;
      for (std::size_t k = 1; k <= GetParam().n; ++k) {
        EXPECT_FALSE(a.truncated(k).concurrent_with(b.truncated(k)))
            << "ordered clocks became concurrent after truncation to " << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClockLaws,
    ::testing::Values(ClockLawsParam{1, 2}, ClockLawsParam{2, 3}, ClockLawsParam{3, 4},
                      ClockLawsParam{4, 8}, ClockLawsParam{5, 16}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.n);
    });

// --- matrix clocks ---------------------------------------------------------

TEST(MatrixClock, TickUpdatesOwnDiagonal) {
  MatrixClock m(3, 1);
  m.tick();
  m.tick();
  EXPECT_EQ(m.own_row(), (VectorClock{0, 2, 0}));
  EXPECT_EQ(m.row(0), (VectorClock{0, 0, 0}));
}

TEST(MatrixClock, MergeRowAbsorbsSenderKnowledge) {
  MatrixClock m(3, 0);
  m.tick();
  m.merge_row(2, VectorClock{0, 4, 7});
  EXPECT_EQ(m.own_row(), (VectorClock{1, 4, 7}));
  EXPECT_EQ(m.row(2), (VectorClock{0, 4, 7}));
}

TEST(MatrixClock, GcFrontierIsColumnMinimum) {
  MatrixClock m(2, 0);
  m.tick();  // own row {1,0}
  // Rank 1 told us it has seen our first event.
  m.merge_row(1, VectorClock{1, 3});
  // rows: own {1,3}, row1 {1,3} → frontier = {1,3}.
  EXPECT_EQ(m.gc_frontier(), (VectorClock{1, 3}));
}

TEST(MatrixClock, FrontierNeverExceedsOwnRow) {
  util::Rng rng(99);
  MatrixClock m(4, 2);
  for (int step = 0; step < 200; ++step) {
    if (rng.chance(0.5)) {
      m.tick();
    } else {
      VectorClock row(4);
      for (std::size_t j = 0; j < 4; ++j) row[j] = rng.below(20);
      m.merge_row(static_cast<Rank>(rng.below(4)), row);
    }
    EXPECT_TRUE(m.gc_frontier().dominated_by(m.own_row()));
  }
}

TEST(MatrixClock, MergeMatrixDominatesBothInputs) {
  MatrixClock a(3, 0), b(3, 1);
  a.tick();
  b.tick();
  b.tick();
  a.merge_matrix(b);
  EXPECT_TRUE(b.own_row().dominated_by(a.own_row()));
  EXPECT_TRUE(b.row(1).dominated_by(a.row(1)));
}

}  // namespace
}  // namespace dsmr::clocks
