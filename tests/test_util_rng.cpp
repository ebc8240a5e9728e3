#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace hsbp::util {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(KeyedStream, SameKeySameStream) {
  Rng a = keyed_stream(7, 3, 11);
  Rng b = keyed_stream(7, 3, 11);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(KeyedStream, NeighbouringKeysGiveDifferentStreams) {
  // Every site of a 3×3×3 cube of adjacent keys — including the swapped
  // (a, b) pairs — starts a stream of its own.
  std::set<std::uint64_t> first_draws;
  for (std::uint64_t key = 0; key < 3; ++key) {
    for (std::uint64_t a = 0; a < 3; ++a) {
      for (std::uint64_t b = 0; b < 3; ++b) {
        first_draws.insert(keyed_stream(key, a, b).next_u64());
      }
    }
  }
  EXPECT_EQ(first_draws.size(), 27u);
}

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ReseedResetsStream) {
  Rng a(5);
  const std::uint64_t first = a.next_u64();
  a.next_u64();
  a.reseed(5);
  EXPECT_EQ(a.next_u64(), first);
}

TEST(Rng, ZeroSeedProducesNonZeroOutput) {
  Rng rng(0);
  bool any_nonzero = false;
  for (int i = 0; i < 10; ++i) any_nonzero |= (rng.next_u64() != 0);
  EXPECT_TRUE(any_nonzero);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(77);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(99);
  double sum = 0.0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.uniform_int(bound), bound);
    }
  }
}

TEST(Rng, UniformIntBoundOneAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(1), 0u);
}

TEST(Rng, UniformIntIsApproximatelyUniform) {
  Rng rng(31);
  constexpr std::uint64_t buckets = 10;
  constexpr int n = 100000;
  std::array<int, buckets> counts{};
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(buckets)];
  // Chi-square with 9 dof: 99.9th percentile ≈ 27.9.
  double chi2 = 0.0;
  const double expected = static_cast<double>(n) / buckets;
  for (const int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 27.9);
}

TEST(Rng, UniformBetweenInclusiveBounds) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values hit in 1000 draws
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, DiscreteRespectsWeights) {
  Rng rng(19);
  const std::vector<double> weights = {1.0, 3.0, 6.0};
  std::array<int, 3> counts{};
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.discrete(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, DiscreteZeroWeightNeverDrawn) {
  Rng rng(23);
  const std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(rng.discrete(weights), 1u);
}

TEST(Rng, DiscreteSingleElement) {
  Rng rng(29);
  const std::vector<double> weights = {2.5};
  EXPECT_EQ(rng.discrete(weights), 0u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<std::int32_t> values(100);
  std::iota(values.begin(), values.end(), 0);
  auto shuffled = values;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, values);  // astronomically unlikely to match
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(Rng, ShuffleHandlesTinyInputs) {
  Rng rng(41);
  std::vector<std::int32_t> empty;
  rng.shuffle(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<std::int32_t> one = {7};
  rng.shuffle(one);
  EXPECT_EQ(one, (std::vector<std::int32_t>{7}));
}

TEST(RngPool, StreamsAreIndependentAndDeterministic) {
  RngPool a(5, 4);
  RngPool b(5, 4);
  EXPECT_EQ(a.size(), 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(a.stream(s).next_u64(), b.stream(s).next_u64());
  }
  RngPool c(5, 4);
  EXPECT_NE(c.stream(0).next_u64(), c.stream(1).next_u64());
}

TEST(RngPool, StreamsIndependentOfPoolSize) {
  RngPool small(5, 2);
  RngPool large(5, 8);
  EXPECT_EQ(small.stream(0).next_u64(), large.stream(0).next_u64());
  EXPECT_EQ(small.stream(1).next_u64(), large.stream(1).next_u64());
}

class RngBoundSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBoundSweep, LemireIsUnbiasedEnough) {
  const std::uint64_t bound = GetParam();
  Rng rng(bound * 2654435761ULL + 1);
  std::vector<int> counts(bound, 0);
  const int n = static_cast<int>(bound) * 2000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(bound)];
  const double expected = static_cast<double>(n) / static_cast<double>(bound);
  double chi2 = 0.0;
  for (const int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // 99.9th percentile of chi-square(k-1) is below k + 4*sqrt(2k) + 10
  // for these sizes; loose but catches gross bias.
  const double dof = static_cast<double>(bound - 1);
  EXPECT_LT(chi2, dof + 4.0 * std::sqrt(2.0 * dof) + 12.0);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundSweep,
                         ::testing::Values(2, 3, 5, 7, 16, 33, 100));

}  // namespace
}  // namespace hsbp::util
