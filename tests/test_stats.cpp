// Tests for the statistics helpers.

#include "util/stats.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "util/check.h"

namespace bkc {
namespace {

TEST(Stats, MeanAndStddev) {
  const std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_NEAR(stddev(v), std::sqrt(1.25), 1e-12);
}

TEST(Stats, EmptyThrows) {
  const std::vector<double> empty;
  EXPECT_THROW(mean(empty), CheckError);
  EXPECT_THROW(geomean(empty), CheckError);
  EXPECT_THROW(percentile(empty, 50), CheckError);
}

TEST(Stats, GeomeanOfSpeedups) {
  const std::vector<double> v{1.0, 4.0};
  EXPECT_DOUBLE_EQ(geomean(v), 2.0);
  const std::vector<double> with_zero{1.0, 0.0};
  EXPECT_THROW(geomean(with_zero), CheckError);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 40);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 25);
}

TEST(Stats, EntropyUniformIsLogN) {
  const std::vector<double> v(512, 1.0);
  EXPECT_NEAR(entropy_bits(v), 9.0, 1e-12);
}

TEST(Stats, EntropyOfPointMassIsZero) {
  std::vector<double> v(16, 0.0);
  v[3] = 7.0;
  EXPECT_DOUBLE_EQ(entropy_bits(v), 0.0);
}

TEST(Stats, EntropyIgnoresZeros) {
  const std::vector<double> v{0.5, 0.5, 0.0, 0.0};
  EXPECT_NEAR(entropy_bits(v), 1.0, 1e-12);
}

TEST(Stats, NormalizedSumsToOne) {
  const std::vector<double> v{2, 3, 5};
  const auto n = normalized(v);
  EXPECT_DOUBLE_EQ(n[0] + n[1] + n[2], 1.0);
  EXPECT_DOUBLE_EQ(n[2], 0.5);
}

TEST(Stats, RankDescendingIsStable) {
  const std::vector<double> v{1.0, 3.0, 3.0, 2.0};
  const auto order = rank_descending(v);
  EXPECT_EQ(order[0], 1u);  // first of the tied 3.0s
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 3u);
  EXPECT_EQ(order[3], 0u);
}

TEST(Stats, TopKShare) {
  const std::vector<double> v{6, 1, 2, 1};
  EXPECT_DOUBLE_EQ(top_k_share(v, 1), 0.6);
  EXPECT_DOUBLE_EQ(top_k_share(v, 2), 0.8);
  EXPECT_DOUBLE_EQ(top_k_share(v, 100), 1.0);  // clamped
}

// ---- Edge cases: single element, ties, degenerate histograms ----

TEST(Stats, SingleElementIsItsOwnStatistic) {
  const std::vector<double> v{3.5};
  EXPECT_DOUBLE_EQ(mean(v), 3.5);
  EXPECT_DOUBLE_EQ(stddev(v), 0.0);
  EXPECT_DOUBLE_EQ(geomean(v), 3.5);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 3.5);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.5);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 3.5);
  EXPECT_DOUBLE_EQ(top_k_share(v, 1), 1.0);
}

TEST(Stats, PercentileRejectsOutOfRangeP) {
  const std::vector<double> v{1, 2};
  EXPECT_THROW(percentile(v, -0.5), CheckError);
  EXPECT_THROW(percentile(v, 100.5), CheckError);
}

TEST(Stats, PercentileRejectsNonFiniteValues) {
  // Regression: a NaN breaks std::sort's strict weak ordering, so the
  // old code silently missorted the sample and returned garbage
  // percentiles. Non-finite input must be a CheckError instead.
  const std::vector<double> with_nan{1.0, std::nan(""), 3.0};
  EXPECT_THROW(percentile(with_nan, 50), CheckError);
  const std::vector<double> with_inf{
      1.0, std::numeric_limits<double>::infinity()};
  EXPECT_THROW(percentile(with_inf, 99), CheckError);
  const std::vector<double> with_neg_inf{
      -std::numeric_limits<double>::infinity(), 2.0};
  EXPECT_THROW(percentile(with_neg_inf, 1), CheckError);
}

TEST(Stats, PercentileOfAllEqualValues) {
  const std::vector<double> v{7, 7, 7, 7, 7};
  for (double p : {0.0, 12.5, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(percentile(v, p), 7.0);
  }
}

TEST(Stats, EntropyRejectsDegenerateHistograms) {
  const std::vector<double> all_zero(8, 0.0);
  EXPECT_THROW(entropy_bits(all_zero), CheckError);
  const std::vector<double> negative{1.0, -0.5};
  EXPECT_THROW(entropy_bits(negative), CheckError);
  const std::vector<double> empty;
  EXPECT_THROW(entropy_bits(empty), CheckError);
}

TEST(Stats, NormalizedRejectsDegenerateHistograms) {
  const std::vector<double> all_zero(4, 0.0);
  EXPECT_THROW(normalized(all_zero), CheckError);
  const std::vector<double> negative{2.0, -1.0};
  EXPECT_THROW(normalized(negative), CheckError);
}

TEST(Stats, TopKShareZeroKIsZero) {
  const std::vector<double> v{1, 2, 3};
  EXPECT_DOUBLE_EQ(top_k_share(v, 0), 0.0);
}

TEST(Stats, TopKShareRejectsZeroSum) {
  const std::vector<double> zeros(3, 0.0);
  EXPECT_THROW(top_k_share(zeros, 1), CheckError);
}

TEST(Stats, TopKShareWithTiesUsesStableRanking) {
  // Two values tie for second place; top-2 must take the earlier one,
  // and either choice gives the same share (the metric is well defined
  // under ties because tied values are interchangeable).
  const std::vector<double> v{5, 2, 2, 1};
  EXPECT_DOUBLE_EQ(top_k_share(v, 2), 0.7);
}

TEST(Stats, RankDescendingEmptyAndAllEqual) {
  const std::vector<double> empty;
  EXPECT_TRUE(rank_descending(empty).empty());
  const std::vector<double> equal(4, 1.0);
  const auto order = rank_descending(equal);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace bkc
