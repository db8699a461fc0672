#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

namespace malec {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng r(0);
  // Xorshift must not collapse to the all-zero fixed point.
  EXPECT_NE(r.next(), 0u);
  EXPECT_NE(r.next(), r.next());
}

TEST(Rng, BelowRespectsBound) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng r(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.below(1), 0u);
}

/// The draw rule chance() scales: the top 53 bits of next() as a double
/// in [0, 1), compared with p.
bool uniformDraw(Rng& r, double p) {
  return static_cast<double>(r.next() >> 11) * 0x1p-53 < p;
}

TEST(Rng, ScaledChanceMatchesUniform) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double ps[] = {-0.1, 0.0,  kNaN,          0x1p-60, 0x1p-53,
                       0.1,  0.5,  1.0 - 0x1p-53, 1.0,     1.5};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    // On the boundary: p = k · 2^-53 for the very k the next draw sees
    // fails, and the next double above it succeeds. A random p lands there
    // only with probability 2^-53, so a slip in the scaling shows only
    // here.
    Rng r(seed);
    for (int i = 0; i < 1'000; ++i) {
      Rng peek = r;
      const double at = static_cast<double>(peek.next() >> 11) * 0x1p-53;
      Rng below = r;
      EXPECT_FALSE(below.chance(at)) << seed << " draw " << i;
      EXPECT_TRUE(r.chance(std::nextafter(at, 2.0))) << seed << " draw " << i;
    }
    // Twin streams: chance() and geometric() draw exactly what the
    // uniform rule draws, and consume the same values.
    Rng a(seed), b(seed);
    for (int i = 0; i < 100'000; ++i) {
      const double p = ps[i % 10];
      ASSERT_EQ(uniformDraw(a, p), b.chance(p)) << seed << " draw " << i;
    }
    EXPECT_EQ(a.state(), b.state()) << seed;
    for (const std::uint32_t cap : {0u, 1u, 5u, 32u}) {
      for (const double p : ps) {
        std::uint32_t n = 0;
        while (n < cap && uniformDraw(a, p)) ++n;
        EXPECT_EQ(b.geometric(p, cap), n) << seed << " cap " << cap;
      }
    }
    EXPECT_EQ(a.state(), b.state()) << seed;
  }
}

TEST(Rng, ChanceExtremes) {
  Rng r(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceFrequencyRoughlyMatches) {
  Rng r(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i)
    if (r.chance(0.3)) ++hits;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, GeometricCapped) {
  Rng r(19);
  for (int i = 0; i < 1000; ++i) EXPECT_LE(r.geometric(0.9, 5), 5u);
}

TEST(Rng, GeometricZeroProbability) {
  Rng r(21);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.geometric(0.0, 5), 0u);
}

TEST(Rng, SplitIndependentStreams) {
  Rng base(31);
  Rng a = base.split(1);
  Rng b = base.split(2);
  std::set<std::uint64_t> vals;
  for (int i = 0; i < 32; ++i) {
    vals.insert(a.next());
    vals.insert(b.next());
  }
  EXPECT_EQ(vals.size(), 64u);  // no collisions between split streams
}

}  // namespace
}  // namespace malec
