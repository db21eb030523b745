// Unit tests for the deterministic RNG layer.
#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <type_traits>
#include <vector>

namespace protuner::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanCloseToHalf) {
  Rng rng(99);
  double s = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) s += rng.uniform();
  EXPECT_NEAR(s / kN, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(2, 9);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 9);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 8u);  // all 8 values hit
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, UniformIntNegativeRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-10, -5);
    EXPECT_GE(v, -10);
    EXPECT_LE(v, -5);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(2024);
  constexpr int kN = 200000;
  double s = 0.0, s2 = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    s += x;
    s2 += x * x;
  }
  EXPECT_NEAR(s / kN, 0.0, 0.02);
  EXPECT_NEAR(s2 / kN, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng rng(3);
  constexpr int kN = 100000;
  double s = 0.0;
  for (int i = 0; i < kN; ++i) s += rng.normal(10.0, 2.0);
  EXPECT_NEAR(s / kN, 10.0, 0.05);
}

TEST(Rng, ExponentialMeanIsOne) {
  Rng rng(17);
  constexpr int kN = 200000;
  double s = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.exponential();
    EXPECT_GE(x, 0.0);
    s += x;
  }
  EXPECT_NEAR(s / kN, 1.0, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  constexpr int kN = 100000;
  int hits = 0;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, JumpProducesDisjointStream) {
  Rng a(42);
  Rng b(42);
  b.jump();
  // The jumped stream should not collide with the original's early output.
  std::set<std::uint64_t> first;
  for (int i = 0; i < 1000; ++i) first.insert(a());
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(first.count(b()));
}

TEST(Rng, JumpMatchesReferenceXoshiroJump) {
  // The published xoshiro256 jump on a state seeded like Rng's: for each
  // bit of the jump polynomial, fold the state into the accumulator when
  // the bit is set, then step the generator once.
  const auto rotl = [](std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  };
  std::uint64_t s[4];
  SplitMix64 sm(42);
  for (auto& w : s) w = sm.next();
  const auto next = [&] {
    const std::uint64_t result = rotl(s[0] + s[3], 23) + s[0];
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
  };
  static constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  for (int j = 0; j < 3; ++j) {
    std::uint64_t acc[4] = {0, 0, 0, 0};
    for (const std::uint64_t word : kJump) {
      for (int b = 0; b < 64; ++b) {
        if (word & (1ULL << b)) {
          for (int i = 0; i < 4; ++i) acc[i] ^= s[i];
        }
        next();
      }
    }
    std::copy(std::begin(acc), std::end(acc), std::begin(s));
  }

  Rng rng(42);
  for (int j = 0; j < 3; ++j) rng.jump();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(rng(), next()) << "draw " << i;
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng base(42);
  Rng s0 = base.split(0);
  Rng s1 = base.split(1);
  Rng s0_again = base.split(0);
  EXPECT_EQ(s0(), s0_again());
  EXPECT_NE(s0(), s1());  // consecutive outputs of distinct splits differ
  // base untouched by split.
  Rng fresh(42);
  EXPECT_EQ(base(), fresh());
  // Different splits disagree.
  Rng s0b = base.split(0);
  Rng s1b = base.split(1);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (s0b() == s1b());
  EXPECT_LT(same, 3);
}

TEST(SplitMix64, KnownFirstOutputsDiffer) {
  SplitMix64 a(0);
  SplitMix64 b(1);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, SplitStreamsMatchesSplit) {
  // split_streams(count)[i] must be the same stream as split(i), just
  // computed with one jump per stream instead of i+1.
  const Rng base(2024);
  const std::vector<Rng> streams = base.split_streams(9);
  ASSERT_EQ(streams.size(), 9u);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    EXPECT_TRUE(streams[i] == base.split(i)) << "stream " << i;
  }
  // base untouched.
  Rng fresh(2024);
  Rng base_copy = base;
  EXPECT_EQ(base_copy(), fresh());
}

// split() indices are 64-bit end to end: a wide caller index must reach the
// jump loop unnarrowed.  (Running split(2^32) is infeasible — it is O(n)
// jumps — so pin the signature instead.)
static_assert(std::is_same_v<decltype(&Rng::split),
                             Rng (Rng::*)(std::uint64_t) const>,
              "Rng::split must take a 64-bit stream index");

}  // namespace
}  // namespace protuner::util
