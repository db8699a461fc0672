#include "mem/memory_hierarchy.h"

#include <gtest/gtest.h>

#include <vector>

namespace malec::mem {
namespace {

struct Fixture {
  L1Cache l1{L1Cache::Params{}};
  L2Cache l2{L2Cache::Params{}};
  MemoryHierarchy hier{l1, l2, MemoryHierarchy::Params{}};
};

TEST(MemoryHierarchy, L2MissCostsDramLatency) {
  Fixture f;
  const auto out = f.hier.missAccess(0x1000, /*now=*/100, false);
  EXPECT_FALSE(out.l2_hit);
  // Table II: 12-cycle L2 + 54-cycle DRAM.
  EXPECT_EQ(out.ready_cycle, 100u + 12 + 54);
  EXPECT_TRUE(f.l1.probe(0x1000).has_value());
  EXPECT_TRUE(f.l2.probe(0x1000).has_value());
}

TEST(MemoryHierarchy, L2HitCostsL2LatencyOnly) {
  Fixture f;
  f.l2.fill(0x2000);
  const auto out = f.hier.missAccess(0x2000, 50, false);
  EXPECT_TRUE(out.l2_hit);
  EXPECT_EQ(out.ready_cycle, 50u + 12);
}

TEST(MemoryHierarchy, MshrMergesSameLine) {
  Fixture f;
  const auto a = f.hier.missAccess(0x3000, 10, false);
  const auto b = f.hier.missAccess(0x3008, 12, false);  // same line
  EXPECT_TRUE(b.merged_mshr);
  EXPECT_EQ(b.ready_cycle, a.ready_cycle);
  EXPECT_EQ(b.l1_way, a.l1_way);
  EXPECT_EQ(f.hier.mshrMerges(), 1u);
}

TEST(MemoryHierarchy, MergeExpiresAfterReady) {
  Fixture f;
  const auto a = f.hier.missAccess(0x3000, 10, false);
  f.l1.invalidate(0x3000);
  const auto b = f.hier.missAccess(0x3000, a.ready_cycle + 1, false);
  EXPECT_FALSE(b.merged_mshr);
}

TEST(MemoryHierarchy, MergeFindsItsLineAfterExpiredFillsCompact) {
  // Several fills in flight; the oldest expires and is compacted out of
  // the table by the next miss, and later merges still find their own
  // line's fill.
  Fixture f;
  const auto a = f.hier.missAccess(0x1000, 0, false);   // ready 66
  const auto b = f.hier.missAccess(0x2000, 10, false);  // ready 76
  const auto c = f.hier.missAccess(0x3000, 20, false);  // ready 86
  (void)f.hier.missAccess(0x4000, a.ready_cycle, false);  // drops a
  const auto c2 = f.hier.missAccess(0x3010, 70, false);
  EXPECT_TRUE(c2.merged_mshr);
  EXPECT_EQ(c2.ready_cycle, c.ready_cycle);
  const auto b2 = f.hier.missAccess(0x2020, 71, false);
  EXPECT_TRUE(b2.merged_mshr);
  EXPECT_EQ(b2.ready_cycle, b.ready_cycle);
  f.l1.invalidate(0x1000);
  EXPECT_FALSE(f.hier.missAccess(0x1000, 72, false).merged_mshr);
  EXPECT_EQ(f.hier.mshrMerges(), 2u);
}

TEST(MemoryHierarchy, StoreMissMarksLineDirty) {
  Fixture f;
  f.hier.missAccess(0x4000, 0, /*is_store=*/true);
  // Evicting that line later must be a dirty eviction.
  const auto inv = f.l1.invalidate(0x4000);
  ASSERT_TRUE(inv.has_value());
  EXPECT_TRUE(*inv);
}

TEST(MemoryHierarchy, StoreMergeOntoPendingLineMarksDirty) {
  Fixture f;
  f.hier.missAccess(0x5000, 0, false);
  f.hier.missAccess(0x5010, 1, /*is_store=*/true);  // merges, dirties
  const auto inv = f.l1.invalidate(0x5000);
  ASSERT_TRUE(inv.has_value());
  EXPECT_TRUE(*inv);
}

TEST(MemoryHierarchy, FillAndEvictCallbacksFire) {
  Fixture f;
  std::vector<Addr> fills, evicts;
  f.hier.setFillCallback(
      [&](Addr line, WayIdx) { fills.push_back(line); });
  f.hier.setEvictCallback([&](Addr line) { evicts.push_back(line); });

  f.hier.missAccess(0x6000, 0, false);
  ASSERT_EQ(fills.size(), 1u);
  EXPECT_EQ(fills[0], 0x6000u);
  EXPECT_TRUE(evicts.empty());

  // Force an L1 set conflict to trigger an eviction.
  const Addr stride =
      static_cast<Addr>(f.l1.layout().l1Sets()) * f.l1.layout().lineBytes();
  for (int i = 1; i <= 4; ++i)
    f.hier.missAccess(0x6000 + i * stride, i * 100, false);
  EXPECT_FALSE(evicts.empty());
  EXPECT_EQ(evicts[0], 0x6000u);
}

TEST(MemoryHierarchy, DirtyVictimWritesBackToL2) {
  Fixture f;
  f.hier.missAccess(0x7000, 0, /*is_store=*/true);
  const Addr stride =
      static_cast<Addr>(f.l1.layout().l1Sets()) * f.l1.layout().lineBytes();
  for (int i = 1; i <= 4; ++i)
    f.hier.missAccess(0x7000 + i * stride, i * 100, false);
  EXPECT_EQ(f.hier.l1Writebacks(), 1u);
  // The victim line must be L2-resident and dirty there.
  const auto w = f.l2.probe(0x7000);
  ASSERT_TRUE(w.has_value());
}

TEST(MemoryHierarchy, HitAndMissCountersAdvance) {
  Fixture f;
  f.hier.missAccess(0x8000, 0, false);  // L2 miss
  f.l1.invalidate(0x8000);
  f.hier.missAccess(0x8000, 1000, false);  // now an L2 hit
  EXPECT_EQ(f.hier.l2Misses(), 1u);
  EXPECT_EQ(f.hier.l2Hits(), 1u);
}

TEST(MemoryHierarchy, MshrAvailability) {
  MemoryHierarchy::Params p;
  p.mshrs = 2;
  Fixture f;
  MemoryHierarchy h(f.l1, f.l2, p);
  EXPECT_TRUE(h.mshrAvailable(0));
  h.missAccess(0x100, 0, false);
  h.missAccess(0x10000, 0, false);
  EXPECT_FALSE(h.mshrAvailable(0));
  // After both fills complete, slots free up.
  EXPECT_TRUE(h.mshrAvailable(1000));
}

}  // namespace
}  // namespace malec::mem
