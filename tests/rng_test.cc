#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>
#include "test_util.h"

namespace adahealth {
namespace common {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() != b.NextUint64()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(RngTest, UniformUint64RespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformUint64(17), 17u);
  }
}

TEST(RngTest, UniformUint64CoversAllResidues) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformUint64(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t value = rng.UniformInt(-3, 3);
    EXPECT_GE(value, -3);
    EXPECT_LE(value, 3);
    saw_lo |= value == -3;
    saw_hi |= value == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double value = rng.UniformDouble();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
    sum += value;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliEdgeProbabilities) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(test::Bernoulli(rng, 0.0));
    EXPECT_TRUE(test::Bernoulli(rng, 1.0));
  }
}

TEST(RngTest, BernoulliFrequencyTracksP) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (test::Bernoulli(rng, 0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(23);
  double sum = 0.0;
  double sum_squared = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double value = rng.Normal(2.0, 3.0);
    sum += value;
    sum_squared += value * value;
  }
  double mean = sum / n;
  double variance = sum_squared / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.08);
  EXPECT_NEAR(std::sqrt(variance), 3.0, 0.1);
}

TEST(RngTest, PoissonMeanMatchesSmallLambda) {
  Rng rng(29);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(4.5));
  EXPECT_NEAR(sum / n, 4.5, 0.1);
}

TEST(RngTest, PoissonMeanMatchesLargeLambda) {
  Rng rng(31);
  double sum = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(200.0));
  EXPECT_NEAR(sum / n, 200.0, 2.0);
}

TEST(RngTest, GammaMeanMatches) {
  Rng rng(37);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Gamma(2.0, 3.0);
  EXPECT_NEAR(sum / n, 6.0, 0.2);  // Mean = shape * scale.
}

TEST(RngTest, GammaShapeBelowOne) {
  Rng rng(41);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double value = rng.Gamma(0.5, 2.0);
    EXPECT_GT(value, 0.0);
    sum += value;
  }
  EXPECT_NEAR(sum / n, 1.0, 0.1);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(43);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(47);
  std::vector<double> weights{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[rng.Discrete(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(53);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(100, 30);
  std::set<size_t> distinct(sample.begin(), sample.end());
  EXPECT_EQ(sample.size(), 30u);
  EXPECT_EQ(distinct.size(), 30u);
  for (size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(59);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> distinct(sample.begin(), sample.end());
  EXPECT_EQ(distinct.size(), 10u);
}

// Derives a child generator seeded from the parent's next output.
Rng Fork(Rng& parent) { return Rng(parent.NextUint64()); }

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(61);
  Rng child = Fork(parent);
  // The child stream should differ from the parent's continuation.
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.NextUint64() != child.NextUint64()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(RngTest, SplitMix64KnownFirstOutputDiffersByState) {
  uint64_t s1 = 0;
  uint64_t s2 = 1;
  EXPECT_NE(SplitMix64Next(s1), SplitMix64Next(s2));
}

}  // namespace
}  // namespace common
}  // namespace adahealth
