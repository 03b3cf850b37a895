// Tests for the seeded PRNG and distributions.

#include "src/sim/random.h"

#include <gtest/gtest.h>

#include <vector>

namespace nadino {
namespace {

TEST(RandomTest, DeterministicForEqualSeeds) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RandomTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a.NextU64() == b.NextU64() ? 1 : 0;
  }
  EXPECT_LT(equal, 3);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RandomTest, UniformIntRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t x = rng.UniformInt(5, 17);
    EXPECT_GE(x, 5u);
    EXPECT_LE(x, 17u);
  }
}

TEST(RandomTest, UniformIntSingleValue) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.UniformInt(9, 9), 9u);
  }
}

TEST(RandomTest, ExponentialMeanConverges) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(10.0);
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.2);
}

TEST(RandomTest, ExponentialNonNegative) {
  Rng rng(29);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.Exponential(1.0), 0.0);
  }
}

TEST(RandomTest, ChanceProbabilityConverges) {
  Rng rng(31);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Chance(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

}  // namespace
}  // namespace nadino
