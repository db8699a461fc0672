// The unified L2 as the L1 back end builds it: a mem::Cache of kL2Bytes
// in kL2Ways ways with 64-byte lines (Table II), every way allowed.
#include "mem/cache.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace malec::mem {
namespace {

/// The sets of an L2 of `bytes` at kL2Ways ways and 64-byte lines.
std::uint32_t setsOf(std::uint64_t bytes) {
  return static_cast<std::uint32_t>(bytes / kL2Ways / 64);
}

Cache makeL2(std::uint64_t bytes = kL2Bytes) {
  return Cache(setsOf(bytes), kL2Ways, 64);
}

TEST(L2, GeometryIsTableII) {
  // 1 MByte, 16-way, 64-byte lines: 1024 sets.
  EXPECT_EQ(setsOf(kL2Bytes), 1024u);
  EXPECT_EQ(makeL2().ways(), 16u);
}

TEST(L2, MissFillHit) {
  Cache l2 = makeL2();
  const Addr a = 0xABC'DE40;
  EXPECT_FALSE(l2.probe(a).has_value());
  l2.fill(a, l2.allWays());
  EXPECT_TRUE(l2.probe(a).has_value());
}

TEST(L2, SixteenWaysBeforeEviction) {
  Cache l2 = makeL2();
  const Addr stride = 1024ull * 64;  // same set, different tags
  for (int i = 0; i < 16; ++i)
    EXPECT_FALSE(l2.fill(0x100'0000 + i * stride, l2.allWays()).evicted)
        << i;
  EXPECT_TRUE(l2.fill(0x100'0000 + 16 * stride, l2.allWays()).evicted);
}

TEST(L2, LruVictimSelection) {
  Cache l2 = makeL2(1 << 14);  // small: 16 sets at 16 ways
  const Addr stride = Addr{setsOf(1 << 14)} * 64;
  for (int i = 0; i < 16; ++i) l2.fill(i * stride, l2.allWays());
  l2.touch(0, *l2.probe(0));  // protect way of line 0
  const auto f = l2.fill(16 * stride, l2.allWays());
  EXPECT_TRUE(f.evicted);
  EXPECT_EQ(f.evicted_line_base, stride);  // line 1 was LRU
}

TEST(L2, DirtyWritebackReporting) {
  Cache l2 = makeL2(1 << 14);
  const Addr stride = Addr{setsOf(1 << 14)} * 64;
  const auto f0 = l2.fill(0, l2.allWays());
  l2.markDirty(0, f0.way);
  for (int i = 1; i < 16; ++i) l2.fill(i * stride, l2.allWays());
  const auto f = l2.fill(16 * stride, l2.allWays());
  EXPECT_TRUE(f.evicted);
  EXPECT_TRUE(f.evicted_dirty);
  EXPECT_EQ(f.evicted_line_base, 0u);
}

TEST(L2, InvalidateRemovesLine) {
  Cache l2 = makeL2();
  l2.fill(0x5000, l2.allWays());
  const auto inv = l2.invalidate(0x5000);
  ASSERT_TRUE(inv.has_value());
  EXPECT_FALSE(*inv);
  EXPECT_FALSE(l2.probe(0x5000).has_value());
}

TEST(L2, RandomisedFillProbeConsistency) {
  Cache l2 = makeL2(1 << 16);
  Rng rng(31);
  for (int i = 0; i < 4000; ++i) {
    const Addr a = rng.below(1u << 24) & ~0x3Full;
    if (auto w = l2.probe(a); w.has_value()) {
      l2.touch(a, *w);
    } else {
      const auto f = l2.fill(a, l2.allWays());
      ASSERT_TRUE(l2.probe(a).has_value());
      EXPECT_EQ(*l2.probe(a), f.way);
    }
  }
}

}  // namespace
}  // namespace malec::mem
