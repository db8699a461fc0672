// The L1 data cache as the L1 back end builds it: a mem::Cache in Table
// II's geometry (32 KByte, 4-way, 64-byte lines), filled with every way
// allowed or, when Way Tables encode its ways, every way but the line's
// WT-excluded one (Sec. V).
#include "mem/cache.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/address.h"
#include "common/rng.h"
#include "waydet/way_info.h"

namespace malec::mem {
namespace {

const AddressLayout kLayout;  // Table II

Cache makeL1() {
  return Cache(kLayout.l1Sets(), kLayout.l1Assoc(), kLayout.lineBytes());
}

/// Distance between two lines of one set.
const Addr kStride = Addr{kLayout.l1Sets()} * kLayout.lineBytes();

/// The line's WT-excluded way, salted with its physical page as the Way
/// Tables and the L1 back end salt it.
std::uint32_t excludedWay(Addr paddr) {
  return waydet::excludedWay(kLayout.lineInPage(paddr),
                             kLayout.pageId(paddr), kLayout.l1Banks(),
                             kLayout.l1Assoc());
}

/// The `fill` mask: all ways but the excluded one when `restrict`.
std::uint64_t fillWays(const Cache& l1, Addr paddr, bool restrict) {
  return restrict ? l1.allWays() & ~(1ull << excludedWay(paddr))
                  : l1.allWays();
}

TEST(L1, MissThenHitAfterFill) {
  Cache l1 = makeL1();
  const Addr a = 0x1234'5640;
  EXPECT_FALSE(l1.probe(a).has_value());
  const auto fill = l1.fill(a, l1.allWays());
  EXPECT_FALSE(fill.evicted);
  const auto way = l1.probe(a);
  ASSERT_TRUE(way.has_value());
  EXPECT_EQ(*way, fill.way);
}

TEST(L1, WholeLineHits) {
  Cache l1 = makeL1();
  const Addr base = 0x4'0000;
  l1.fill(base, l1.allWays());
  for (Addr off = 0; off < 64; off += 8)
    EXPECT_TRUE(l1.probe(base + off).has_value());
  EXPECT_FALSE(l1.probe(base + 64).has_value());
}

TEST(L1, FillsSameSetUntilEviction) {
  Cache l1 = makeL1();
  // Five different tags mapping to the same set: 4 fills fit, the fifth
  // evicts the LRU.
  std::vector<Addr> lines;
  for (int i = 0; i < 5; ++i) lines.push_back(0x10'0000 + i * kStride);
  for (int i = 0; i < 4; ++i)
    EXPECT_FALSE(l1.fill(lines[i], l1.allWays()).evicted);
  // Touch line 0 so line 1 is LRU.
  l1.touch(lines[0], *l1.probe(lines[0]));
  const auto fill = l1.fill(lines[4], l1.allWays());
  EXPECT_TRUE(fill.evicted);
  EXPECT_EQ(fill.evicted_line_base, lines[1]);
  EXPECT_FALSE(l1.probe(lines[1]).has_value());
}

TEST(L1, EvictedDirtyFlagPropagates) {
  Cache l1 = makeL1();
  for (int i = 0; i < 4; ++i) {
    const auto f = l1.fill(0x20'0000 + i * kStride, l1.allWays());
    if (i == 0) l1.markDirty(0x20'0000, f.way);
  }
  // Evicting the dirty line 0 must report dirty.
  const auto fill = l1.fill(0x20'0000 + 4 * kStride, l1.allWays());
  EXPECT_TRUE(fill.evicted);
  EXPECT_TRUE(fill.evicted_dirty);
}

TEST(L1, InvalidateReportsDirtiness) {
  Cache l1 = makeL1();
  const Addr a = 0x9000;
  const auto f = l1.fill(a, l1.allWays());
  l1.markDirty(a, f.way);
  const auto inv = l1.invalidate(a);
  ASSERT_TRUE(inv.has_value());
  EXPECT_TRUE(*inv);
  EXPECT_FALSE(l1.probe(a).has_value());
  EXPECT_FALSE(l1.invalidate(a).has_value());
}

TEST(L1, ExcludedWayRotatesWithLineAndPage) {
  // Within one page, lines 0..3 share an exclusion, lines 4..7 the next.
  const Addr page = 0x30'0000;
  const std::uint32_t e0 = excludedWay(page);
  EXPECT_EQ(excludedWay(page + 1 * 64), e0);
  EXPECT_EQ(excludedWay(page + 3 * 64), e0);
  EXPECT_EQ(excludedWay(page + 4 * 64), (e0 + 1) % kLayout.l1Assoc());
  EXPECT_EQ(excludedWay(page + 8 * 64), (e0 + 2) % kLayout.l1Assoc());
  // A different page rotates the exclusion.
  EXPECT_EQ(excludedWay(page + kLayout.pageBytes()),
            (e0 + 1) % kLayout.l1Assoc());
}

TEST(L1, RestrictedFillNeverUsesExcludedWay) {
  Cache l1 = makeL1();
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const Addr a = (0x100'0000 + rng.below(1u << 22)) & ~0x3Full;
    if (l1.probe(a).has_value()) continue;
    const auto f = l1.fill(a, fillWays(l1, a, true));
    ASSERT_NE(static_cast<std::uint32_t>(f.way), excludedWay(a))
        << "line filled into its WT-excluded way";
  }
}

TEST(L1, UnrestrictedFillUsesAllWays) {
  Cache l1 = makeL1();
  std::set<WayIdx> ways;
  for (int i = 0; i < 8; ++i)
    ways.insert(l1.fill(0x50'0000 + i * kStride, l1.allWays()).way);
  EXPECT_EQ(ways.size(), kLayout.l1Assoc());
}

TEST(L1, InvalidateDropsOnlyItsLine) {
  Cache l1 = makeL1();
  l1.fill(0x1000, l1.allWays());
  l1.fill(0x2000, l1.allWays());
  EXPECT_TRUE(l1.probe(0x1000).has_value());
  EXPECT_TRUE(l1.probe(0x2000).has_value());
  l1.invalidate(0x1000);
  EXPECT_FALSE(l1.probe(0x1000).has_value());
  EXPECT_TRUE(l1.probe(0x2000).has_value());
}

TEST(L1, CapacityNeverExceeded) {
  Cache l1 = makeL1();
  Rng rng(17);
  std::set<Addr> touched;
  for (int i = 0; i < 5000; ++i) {
    const Addr a = (rng.below(1u << 26)) & ~0x3Full;
    touched.insert(a);
    if (!l1.probe(a).has_value()) l1.fill(a, fillWays(l1, a, true));
  }
  std::size_t resident = 0;
  for (const Addr a : touched) resident += l1.probe(a).has_value();
  EXPECT_LE(resident, 512u);  // 32 KByte / 64 B
}

// Property: probe(paddr) after fill(paddr) always returns the filled way,
// with and without the WT-excluded way.
class L1FillProbeProperty : public ::testing::TestWithParam<bool> {};

TEST_P(L1FillProbeProperty, FillThenProbeConsistent) {
  Cache l1 = makeL1();
  Rng rng(23);
  for (int i = 0; i < 3000; ++i) {
    const Addr a = rng.below(1u << 24) & ~0x3Full;
    const auto pre = l1.probe(a);
    if (pre.has_value()) {
      l1.touch(a, *pre);
      continue;
    }

    const auto f = l1.fill(a, fillWays(l1, a, GetParam()));
    const auto post = l1.probe(a);
    ASSERT_TRUE(post.has_value());
    EXPECT_EQ(*post, f.way);
    if (f.evicted) {
      EXPECT_FALSE(l1.probe(f.evicted_line_base).has_value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothPolicies, L1FillProbeProperty,
                         ::testing::Bool());

}  // namespace
}  // namespace malec::mem
