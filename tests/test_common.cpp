// Unit tests for the common substrate: rng, time arithmetic, interval map,
// statistics helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/error.hpp"
#include "common/interval_map.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timeutil.hpp"

namespace privid {
namespace {

// ------------------------------------------------------------------ Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    double x = r.uniform(3.0, 5.0);
    EXPECT_GE(x, 3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng r(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    auto x = r.uniform_int(0, 3);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 3);
    saw_lo |= (x == 0);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, LaplaceZeroScaleIsPoint) {
  Rng r(7);
  EXPECT_DOUBLE_EQ(r.laplace(3.5, 0.0), 3.5);
}

TEST(Rng, LaplaceMeanAndScale) {
  Rng r(123);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(r.laplace(0.0, 2.0));
  // Mean ~ 0, variance ~ 2 b^2 = 8.
  EXPECT_NEAR(mean(xs), 0.0, 0.1);
  EXPECT_NEAR(variance(xs), 8.0, 0.5);
}

TEST(Rng, LaplaceMedianAtMu) {
  Rng r(9);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(r.laplace(5.0, 1.0));
  EXPECT_NEAR(median(xs), 5.0, 0.05);
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(1);
  Rng c1 = parent.fork();
  Rng c2 = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (c1.uniform() == c2.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, RejectsBadArguments) {
  Rng r(1);
  EXPECT_THROW(r.uniform(5, 3), ArgumentError);
  EXPECT_THROW(r.exponential(0), ArgumentError);
  EXPECT_THROW(r.laplace(0, -1), ArgumentError);
  EXPECT_THROW(r.poisson(-1), ArgumentError);
}

TEST(Rng, BernoulliExtremes) {
  Rng r(1);
  EXPECT_FALSE(r.bernoulli(0.0));
  EXPECT_TRUE(r.bernoulli(1.0));
}

// ------------------------------------------------------------- timeutil

TEST(TimeUtil, ExactFrameConversion) {
  EXPECT_EQ(to_frames_exact(0.5, 30), 15);
  EXPECT_EQ(to_frames_exact(5.0, 30), 150);
  EXPECT_THROW(to_frames_exact(0.25, 30), ArgumentError);  // 7.5 frames
}

TEST(TimeUtil, RoundTrip) {
  EXPECT_DOUBLE_EQ(to_seconds(to_frames_exact(2.0, 25), 25), 2.0);
}

TEST(TimeUtil, IntervalOps) {
  TimeInterval a{0, 10}, b{5, 15}, c{20, 30};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps(c));
  EXPECT_EQ(a.intersect(b), (TimeInterval{5, 10}));
  EXPECT_TRUE(a.intersect(c).empty());
  EXPECT_TRUE(a.contains(0));
  EXPECT_FALSE(a.contains(10));
}

TEST(TimeUtil, FormatClock) {
  EXPECT_EQ(format_clock(6 * 3600 + 90), "06:01:30");
  EXPECT_EQ(format_clock(25 * 3600), "01:00:00");  // wraps
}

TEST(TimeUtil, FormatDuration) {
  EXPECT_EQ(format_duration(5), "5s");
  EXPECT_EQ(format_duration(120), "2min");
  EXPECT_EQ(format_duration(7200), "2hr");
}

// --------------------------------------------------------- IntervalMap

TEST(IntervalMap, DefaultEverywhere) {
  IntervalMap m(1.5);
  EXPECT_DOUBLE_EQ(m.value_at(0), 1.5);
  EXPECT_DOUBLE_EQ(m.value_at(-1000), 1.5);
  EXPECT_DOUBLE_EQ(m.value_at(1 << 30), 1.5);
}

TEST(IntervalMap, AddAndLookup) {
  IntervalMap m;
  m.add(10, 20, 2.0);
  EXPECT_DOUBLE_EQ(m.value_at(9), 0.0);
  EXPECT_DOUBLE_EQ(m.value_at(10), 2.0);
  EXPECT_DOUBLE_EQ(m.value_at(19), 2.0);
  EXPECT_DOUBLE_EQ(m.value_at(20), 0.0);
}

TEST(IntervalMap, OverlappingAdds) {
  IntervalMap m;
  m.add(0, 10, 1.0);
  m.add(5, 15, 1.0);
  EXPECT_DOUBLE_EQ(m.value_at(2), 1.0);
  EXPECT_DOUBLE_EQ(m.value_at(7), 2.0);
  EXPECT_DOUBLE_EQ(m.value_at(12), 1.0);
  EXPECT_DOUBLE_EQ(m.max_over(0, 15), 2.0);
  EXPECT_DOUBLE_EQ(m.min_over(0, 15), 1.0);
  EXPECT_DOUBLE_EQ(m.min_over(6, 9), 2.0);
}

TEST(IntervalMap, SumOver) {
  IntervalMap m;
  m.add(0, 10, 1.0);
  m.add(5, 15, 2.0);
  // [0,5): 1, [5,10): 3, [10,15): 2
  EXPECT_DOUBLE_EQ(m.sum_over(0, 15), 5 * 1.0 + 5 * 3.0 + 5 * 2.0);
  EXPECT_DOUBLE_EQ(m.sum_over(20, 30), 0.0);
}

TEST(IntervalMap, AssignReplaces) {
  IntervalMap m;
  m.add(0, 100, 5.0);
  m.assign(40, 60, 1.0);
  EXPECT_DOUBLE_EQ(m.value_at(39), 5.0);
  EXPECT_DOUBLE_EQ(m.value_at(50), 1.0);
  EXPECT_DOUBLE_EQ(m.value_at(60), 5.0);
}

TEST(IntervalMap, CoalescesAdjacentEqual) {
  IntervalMap m;
  m.add(0, 10, 1.0);
  m.add(10, 20, 1.0);
  auto segs = m.segments();
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].lo, 0);
  EXPECT_EQ(segs[0].hi, 20);
  EXPECT_DOUBLE_EQ(segs[0].value, 1.0);
}

TEST(IntervalMap, CancellingAddRestoresDefault) {
  IntervalMap m;
  m.add(5, 15, 3.0);
  m.add(5, 15, -3.0);
  EXPECT_EQ(m.breakpoint_count(), 0u);
  EXPECT_TRUE(m.segments().empty());
}

TEST(IntervalMap, EmptyRangeIsNoop) {
  IntervalMap m;
  m.add(10, 10, 5.0);
  m.add(10, 5, 5.0);
  EXPECT_EQ(m.breakpoint_count(), 0u);
}

TEST(IntervalMap, ThrowsOnEmptyExtrema) {
  IntervalMap m;
  EXPECT_THROW(m.min_over(5, 5), ArgumentError);
  EXPECT_THROW(m.max_over(5, 4), ArgumentError);
}

// Property test: interval map agrees with a dense reference under random
// operation sequences.
class IntervalMapProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntervalMapProperty, MatchesDenseReference) {
  Rng rng(GetParam());
  constexpr std::int64_t kLo = 0, kHi = 200;
  IntervalMap m(0.5);
  std::vector<double> dense(kHi - kLo, 0.5);

  for (int op = 0; op < 200; ++op) {
    std::int64_t a = rng.uniform_int(kLo, kHi - 1);
    std::int64_t b = rng.uniform_int(kLo, kHi - 1);
    if (a > b) std::swap(a, b);
    ++b;
    double delta = rng.uniform(-2, 2);
    if (rng.bernoulli(0.2)) {
      m.assign(a, b, delta);
      for (std::int64_t k = a; k < b; ++k) dense[k] = delta;
    } else {
      m.add(a, b, delta);
      for (std::int64_t k = a; k < b; ++k) dense[k] += delta;
    }
  }
  for (std::int64_t k = kLo; k < kHi; ++k) {
    ASSERT_NEAR(m.value_at(k), dense[k], 1e-9) << "key " << k;
  }
  // Spot-check range queries.
  for (int q = 0; q < 50; ++q) {
    std::int64_t a = rng.uniform_int(kLo, kHi - 2);
    std::int64_t b = rng.uniform_int(a + 1, kHi - 1);
    double mn = dense[a], mx = dense[a], sum = 0;
    for (std::int64_t k = a; k < b; ++k) {
      mn = std::min(mn, dense[k]);
      mx = std::max(mx, dense[k]);
      sum += dense[k];
    }
    ASSERT_NEAR(m.min_over(a, b), mn, 1e-9);
    ASSERT_NEAR(m.max_over(a, b), mx, 1e-9);
    ASSERT_NEAR(m.sum_over(a, b), sum, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalMapProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --------------------------------------------------------------- stats

TEST(Stats, MeanVarianceStddev) {
  std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(variance(xs), 1.25);
  EXPECT_DOUBLE_EQ(stddev(xs), std::sqrt(1.25));
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_THROW(median({}), ArgumentError);
}

TEST(Stats, Percentile) {
  std::vector<double> xs{0, 10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 20.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 10.0);
}

TEST(Stats, Rmse) {
  EXPECT_DOUBLE_EQ(rmse({1, 2}, {1, 2}), 0.0);
  EXPECT_DOUBLE_EQ(rmse({0, 0}, {3, 4}), std::sqrt(12.5));
  EXPECT_THROW(rmse({1}, {1, 2}), ArgumentError);
}

TEST(Stats, RelativeAccuracy) {
  EXPECT_DOUBLE_EQ(relative_accuracy(100, 100), 1.0);
  EXPECT_DOUBLE_EQ(relative_accuracy(90, 100), 0.9);
  EXPECT_DOUBLE_EQ(relative_accuracy(300, 100), 0.0);  // clamped
  EXPECT_DOUBLE_EQ(relative_accuracy(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(relative_accuracy(5, 0), 0.0);
}

TEST(Stats, HistogramBinning) {
  Histogram h(0, 10, 5);
  h.add(0.5);
  h.add(9.5);
  h.add(100);   // clamped to last bin
  h.add(-5);    // clamped to first bin
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.frequency(0), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
}

TEST(Stats, HistogramDistanceIdentical) {
  std::vector<double> a{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(histogram_distance(a, a, 10), 0.0);
}

TEST(Stats, HistogramDistanceDisjoint) {
  std::vector<double> a{0, 0.1, 0.2}, b{10, 10.1, 10.2};
  EXPECT_NEAR(histogram_distance(a, b, 10), 1.0, 1e-9);
}

}  // namespace
}  // namespace privid
