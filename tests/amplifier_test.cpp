#include <gtest/gtest.h>

#include <cmath>

#include "expander/amplifier.hpp"
#include "prng/registry.hpp"

namespace hprng::expander {
namespace {

TEST(BadSet, DensityMatchesBeta) {
  for (double beta : {0.1, 0.25, 0.5}) {
    int bad = 0;
    constexpr int kN = 200000;
    for (int i = 0; i < kN; ++i) {
      if (in_bad_set(static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ull,
                     beta)) {
        ++bad;
      }
    }
    const double density = static_cast<double>(bad) / kN;
    EXPECT_NEAR(density, beta, 5.0 * std::sqrt(beta * (1 - beta) / kN));
  }
}

TEST(BadSet, DeterministicAndMonotoneInBeta) {
  EXPECT_EQ(in_bad_set(12345, 0.3), in_bad_set(12345, 0.3));
  // If a seed is bad at beta it stays bad at any larger beta.
  for (std::uint64_t s : {1ull, 99ull, 424242ull}) {
    if (in_bad_set(s, 0.2)) {
      EXPECT_TRUE(in_bad_set(s, 0.4));
    }
  }
  EXPECT_FALSE(in_bad_set(7, 0.0));
  EXPECT_TRUE(in_bad_set(7, 1.0));
}

TEST(AmplifyIndependent, MatchesBinomialTail) {
  auto rng = prng::make_by_name("mt19937", 99);
  constexpr double kBeta = 0.25;
  constexpr int kK = 5;
  const auto r = amplify_independent(*rng, kBeta, kK, 40000);
  // Majority of 5 bad with p = 0.25: P(X >= 3) = C(5,3)p^3q^2 + ... .
  const double q = 1 - kBeta;
  const double expect = 10 * std::pow(kBeta, 3) * q * q +
                        5 * std::pow(kBeta, 4) * q + std::pow(kBeta, 5);
  EXPECT_NEAR(r.failure_rate, expect, 0.01);
  EXPECT_NEAR(r.observed_beta, kBeta, 0.01);
  EXPECT_EQ(r.bits_per_trial, 64u * kK);
}

TEST(AmplifyWalk, ErrorDecaysWithK) {
  auto rng = prng::make_by_name("mt19937", 7);
  constexpr double kBeta = 0.25;
  const auto k3 = amplify_walk(*rng, kBeta, 3, 16, 20000);
  const auto k9 = amplify_walk(*rng, kBeta, 9, 16, 20000);
  const auto k15 = amplify_walk(*rng, kBeta, 15, 16, 20000);
  EXPECT_GT(k3.failure_rate, k9.failure_rate);
  EXPECT_GT(k9.failure_rate, k15.failure_rate);
  EXPECT_LT(k15.failure_rate, 0.02);
  EXPECT_NEAR(k9.observed_beta, kBeta, 0.02);
}

TEST(AmplifyWalk, UsesFewerBitsThanIndependent) {
  auto rng = prng::make_by_name("mt19937", 7);
  const auto ind = amplify_independent(*rng, 0.2, 9, 100);
  const auto wlk = amplify_walk(*rng, 0.2, 9, 8, 100);
  EXPECT_LT(wlk.bits_per_trial, ind.bits_per_trial);
  // 64 + 3*8*8 = 256 vs 576.
  EXPECT_EQ(wlk.bits_per_trial, 64u + 3u * 8u * 8u);
}

TEST(AmplifyWalk, TracksIndependentDecay) {
  // The expander Chernoff bound: the walk's majority error is within a
  // constant band of the independent one at moderate k.
  auto rng = prng::make_by_name("philox4x32-10", 3);
  constexpr double kBeta = 0.2;
  constexpr int kK = 9;
  const auto ind = amplify_independent(*rng, kBeta, kK, 40000);
  const auto wlk = amplify_walk(*rng, kBeta, kK, 16, 40000);
  EXPECT_LT(wlk.failure_rate, 3.0 * ind.failure_rate + 0.01);
}

TEST(AmplifyWalk, SingleVoteMatchesBeta) {
  auto rng = prng::make_by_name("mt19937", 5);
  const auto r = amplify_walk(*rng, 0.3, 1, 4, 30000);
  EXPECT_NEAR(r.failure_rate, 0.3, 0.02);
  EXPECT_EQ(r.bits_per_trial, 64u);
}

}  // namespace
}  // namespace hprng::expander
