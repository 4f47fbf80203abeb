#include "common/rng.h"

#include <gtest/gtest.h>

namespace quasaq {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.NextDouble(), b.NextDouble());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 20; ++i) {
    if (a.NextDouble() != b.NextDouble()) ++differences;
  }
  EXPECT_GT(differences, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.Uniform(-2.5, 9.5);
    EXPECT_GE(x, -2.5);
    EXPECT_LT(x, 9.5);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t x = rng.UniformInt(0, 3);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 3);
    saw_lo |= x == 0;
    saw_hi |= x == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(RngTest, ClampedNormalStaysInBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.ClampedNormal(1.0, 10.0, 0.5, 1.5);
    EXPECT_GE(x, 0.5);
    EXPECT_LE(x, 1.5);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequencyConverges) {
  Rng rng(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, WeightedIndexNeverPicksZeroWeight) {
  Rng rng(9);
  std::vector<double> weights = {0.0, 1.0, 0.0, 2.0};
  for (int i = 0; i < 1000; ++i) {
    size_t index = rng.WeightedIndex(weights);
    EXPECT_TRUE(index == 1 || index == 3);
  }
}

TEST(RngTest, WeightedIndexProportions) {
  Rng rng(9);
  std::vector<double> weights = {1.0, 3.0};
  int count1 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.WeightedIndex(weights) == 1) ++count1;
  }
  EXPECT_NEAR(static_cast<double>(count1) / n, 0.75, 0.02);
}

TEST(RngTest, ZipfZeroSkewIsUniformish) {
  Rng rng(13);
  std::vector<int> counts(4, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.Zipf(4, 0.0)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.25, 0.03);
  }
}

TEST(RngTest, ZipfSkewFavorsLowRanks) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.Zipf(10, 1.2)];
  EXPECT_GT(counts[0], counts[5]);
  EXPECT_GT(counts[0], counts[9]);
}

}  // namespace
}  // namespace quasaq
