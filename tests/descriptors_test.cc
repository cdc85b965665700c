#include "stats/descriptors.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include <gtest/gtest.h>

namespace adahealth {
namespace stats {
namespace {

TEST(SummarizeTest, BasicMoments) {
  Summary summary = Summarize(std::vector<double>{1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(summary.count, 4u);
  EXPECT_DOUBLE_EQ(summary.mean, 2.5);
  EXPECT_DOUBLE_EQ(summary.variance, 1.25);
  EXPECT_DOUBLE_EQ(summary.min, 1.0);
  EXPECT_DOUBLE_EQ(summary.max, 4.0);
  EXPECT_DOUBLE_EQ(summary.median, 2.5);
  EXPECT_NEAR(summary.skewness, 0.0, 1e-12);
}

TEST(SummarizeTest, EmptyInput) {
  Summary summary = Summarize(std::vector<double>{});
  EXPECT_EQ(summary.count, 0u);
  EXPECT_DOUBLE_EQ(summary.mean, 0.0);
}

TEST(SummarizeTest, SingleValue) {
  Summary summary = Summarize(std::vector<double>{7.0});
  EXPECT_DOUBLE_EQ(summary.mean, 7.0);
  EXPECT_DOUBLE_EQ(summary.variance, 0.0);
  EXPECT_DOUBLE_EQ(summary.median, 7.0);
  EXPECT_DOUBLE_EQ(summary.skewness, 0.0);
}

TEST(SummarizeTest, SkewnessSign) {
  // Right-skewed sample.
  Summary right = Summarize(std::vector<double>{1, 1, 1, 1, 10});
  EXPECT_GT(right.skewness, 0.0);
  Summary left = Summarize(std::vector<double>{-10, 1, 1, 1, 1});
  EXPECT_LT(left.skewness, 0.0);
}

TEST(SummarizeTest, IntegerOverload) {
  Summary summary = Summarize(std::vector<int64_t>{2, 4, 6});
  EXPECT_DOUBLE_EQ(summary.mean, 4.0);
}

TEST(QuantileTest, InterpolatesLinearly) {
  std::vector<double> values{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(Quantile(values, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.25), 17.5);
}

TEST(QuantileTest, UnsortedInput) {
  EXPECT_DOUBLE_EQ(Quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(EntropyTest, UniformDistribution) {
  EXPECT_NEAR(Entropy({10, 10, 10, 10}), 2.0, 1e-12);
}

TEST(EntropyTest, DegenerateDistribution) {
  EXPECT_DOUBLE_EQ(Entropy({100, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(Entropy({0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(Entropy({}), 0.0);
}

TEST(NormalizedEntropyTest, Bounds) {
  EXPECT_DOUBLE_EQ(NormalizedEntropy({5, 5}), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedEntropy({5}), 1.0);  // Fewer than 2 buckets.
  double skewed = NormalizedEntropy({100, 1, 1});
  EXPECT_GT(skewed, 0.0);
  EXPECT_LT(skewed, 1.0);
}

TEST(GiniTest, PerfectEquality) {
  EXPECT_NEAR(GiniCoefficient({5, 5, 5, 5}), 0.0, 1e-12);
}

TEST(GiniTest, FullConcentration) {
  // All mass on one bucket of n: Gini -> (n-1)/n.
  EXPECT_NEAR(GiniCoefficient({0, 0, 0, 100}), 0.75, 1e-12);
}

TEST(GiniTest, EmptyAndZero) {
  EXPECT_DOUBLE_EQ(GiniCoefficient({}), 0.0);
  EXPECT_DOUBLE_EQ(GiniCoefficient({0, 0}), 0.0);
}

TEST(TopFractionCoverageTest, KnownValues) {
  std::vector<int64_t> counts{70, 20, 5, 5};
  EXPECT_DOUBLE_EQ(TopFractionCoverage(counts, 0.25), 0.70);
  EXPECT_DOUBLE_EQ(TopFractionCoverage(counts, 0.5), 0.90);
  EXPECT_DOUBLE_EQ(TopFractionCoverage(counts, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(TopFractionCoverage(counts, 0.0), 0.0);
}

TEST(TopFractionCoverageTest, UnsortedInput) {
  std::vector<int64_t> counts{5, 70, 5, 20};
  EXPECT_DOUBLE_EQ(TopFractionCoverage(counts, 0.25), 0.70);
}

// Smallest number of most-frequent buckets whose mass reaches
// `coverage` (in [0, 1]) of the total; counts.size() when the total is
// zero and coverage > 0.
size_t BucketsForCoverage(const std::vector<int64_t>& counts,
                          double coverage) {
  std::vector<int64_t> sorted = counts;
  std::sort(sorted.begin(), sorted.end(), std::greater<int64_t>());
  int64_t total = 0;
  for (int64_t c : sorted) total += c;
  if (total == 0) return coverage > 0.0 ? counts.size() : 0;
  int64_t needed = static_cast<int64_t>(
      std::ceil(coverage * static_cast<double>(total)));
  if (needed <= 0) return 0;
  int64_t covered = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    covered += sorted[i];
    if (covered >= needed) return i + 1;
  }
  return sorted.size();
}

// Pearson correlation of two equal-length samples; 0 when either is
// constant.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  if (x.size() < 2) return 0.0;
  const double n = static_cast<double>(x.size());
  double mean_x = 0.0;
  double mean_y = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    mean_x += x[i];
    mean_y += y[i];
  }
  mean_x /= n;
  mean_y /= n;
  double cov = 0.0;
  double var_x = 0.0;
  double var_y = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    double dx = x[i] - mean_x;
    double dy = y[i] - mean_y;
    cov += dx * dy;
    var_x += dx * dx;
    var_y += dy * dy;
  }
  if (var_x <= 0.0 || var_y <= 0.0) return 0.0;
  return cov / std::sqrt(var_x * var_y);
}

TEST(BucketsForCoverageTest, KnownValues) {
  std::vector<int64_t> counts{70, 20, 5, 5};
  EXPECT_EQ(BucketsForCoverage(counts, 0.5), 1u);
  EXPECT_EQ(BucketsForCoverage(counts, 0.75), 2u);
  EXPECT_EQ(BucketsForCoverage(counts, 1.0), 4u);
  EXPECT_EQ(BucketsForCoverage(counts, 0.0), 0u);
}

TEST(PearsonCorrelationTest, PerfectCorrelations) {
  std::vector<double> x{1, 2, 3, 4};
  std::vector<double> y{2, 4, 6, 8};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> z{8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, z), -1.0, 1e-12);
}

TEST(PearsonCorrelationTest, ConstantInputIsZero) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
}

}  // namespace
}  // namespace stats
}  // namespace adahealth
