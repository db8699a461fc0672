#include "mem/memory_hierarchy.h"

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "common/address.h"

namespace malec::mem {
namespace {

/// Table II: a 128-set 4-way L1 and a 1024-set 16-way L2, 64-byte lines.
struct Fixture {
  AddressLayout layout;
  Cache l1{layout.l1Sets(), layout.l1Assoc(), layout.lineBytes()};
  Cache l2{kL2Bytes / kL2Ways / 64, kL2Ways, 64};
  MemoryHierarchy hier{l1, l2, MemoryHierarchy::Params{}};
  /// Addresses this far apart share an L1 set.
  Addr stride = static_cast<Addr>(layout.l1Sets()) * layout.lineBytes();

  MemoryHierarchy::MissOutcome miss(Addr paddr, Cycle now,
                                    bool is_store = false) {
    return hier.missAccess(paddr, now, is_store, l1.allWays());
  }
};

TEST(MemoryHierarchy, L2MissCostsDramLatency) {
  Fixture f;
  const auto out = f.miss(0x1000, /*now=*/100);
  EXPECT_FALSE(out.l2_hit);
  // Table II: 12-cycle L2 + 54-cycle DRAM.
  EXPECT_EQ(out.ready_cycle, 100u + 12 + 54);
  EXPECT_TRUE(f.l1.probe(0x1000).has_value());
  EXPECT_TRUE(f.l2.probe(0x1000).has_value());
}

TEST(MemoryHierarchy, L2HitCostsL2LatencyOnly) {
  Fixture f;
  f.l2.fill(0x2000, f.l2.allWays());
  const auto out = f.miss(0x2000, 50);
  EXPECT_TRUE(out.l2_hit);
  EXPECT_EQ(out.ready_cycle, 50u + 12);
}

TEST(MemoryHierarchy, MshrMergesSameLine) {
  Fixture f;
  const auto a = f.miss(0x3000, 10);
  const auto b = f.miss(0x3008, 12);  // same line
  EXPECT_TRUE(b.merged_mshr);
  EXPECT_EQ(b.ready_cycle, a.ready_cycle);
  EXPECT_EQ(b.l1_way, a.l1_way);
}

TEST(MemoryHierarchy, MergeExpiresAfterReady) {
  Fixture f;
  const auto a = f.miss(0x3000, 10);
  f.l1.invalidate(0x3000);
  const auto b = f.miss(0x3000, a.ready_cycle + 1);
  EXPECT_FALSE(b.merged_mshr);
}

TEST(MemoryHierarchy, MergeFindsItsLineAfterExpiredFillsCompact) {
  // Several fills in flight; the oldest expires and is compacted out of
  // the table by the next miss, and later merges still find their own
  // line's fill.
  Fixture f;
  const auto a = f.miss(0x1000, 0);   // ready 66
  const auto b = f.miss(0x2000, 10);  // ready 76
  const auto c = f.miss(0x3000, 20);  // ready 86
  (void)f.miss(0x4000, a.ready_cycle);  // drops a
  const auto c2 = f.miss(0x3010, 70);
  EXPECT_TRUE(c2.merged_mshr);
  EXPECT_EQ(c2.ready_cycle, c.ready_cycle);
  const auto b2 = f.miss(0x2020, 71);
  EXPECT_TRUE(b2.merged_mshr);
  EXPECT_EQ(b2.ready_cycle, b.ready_cycle);
  f.l1.invalidate(0x1000);
  EXPECT_FALSE(f.miss(0x1000, 72).merged_mshr);
}

TEST(MemoryHierarchy, StoreMissMarksLineDirty) {
  Fixture f;
  f.miss(0x4000, 0, /*is_store=*/true);
  // Evicting that line later must be a dirty eviction.
  const auto inv = f.l1.invalidate(0x4000);
  ASSERT_TRUE(inv.has_value());
  EXPECT_TRUE(*inv);
}

TEST(MemoryHierarchy, StoreMergeOntoPendingLineMarksDirty) {
  Fixture f;
  f.miss(0x5000, 0);
  f.miss(0x5010, 1, /*is_store=*/true);  // merges, dirties
  const auto inv = f.l1.invalidate(0x5000);
  ASSERT_TRUE(inv.has_value());
  EXPECT_TRUE(*inv);
}

TEST(MemoryHierarchy, OutcomeReportsInstallAndDisplacedLine) {
  Fixture f;
  const auto first = f.miss(0x6010, 0);
  EXPECT_TRUE(first.installed);
  EXPECT_EQ(f.l1.probe(0x6000), std::optional<WayIdx>(first.l1_way));
  EXPECT_FALSE(first.evicted);

  // Fill the rest of the set, then force an L1 set conflict.
  for (int i = 1; i <= 3; ++i)
    EXPECT_FALSE(f.miss(0x6000 + i * f.stride, i * 100).evicted) << i;
  const auto conflict = f.miss(0x6000 + 4 * f.stride, 400);
  EXPECT_TRUE(conflict.installed);
  ASSERT_TRUE(conflict.evicted);
  EXPECT_EQ(conflict.evicted_line, 0x6000u);  // the LRU line
  EXPECT_EQ(conflict.l1_way, first.l1_way);

  // A miss merging onto a fill whose line is still resident installs
  // nothing.
  const auto merged = f.miss(0x6000 + 4 * f.stride + 8, 401);
  EXPECT_TRUE(merged.merged_mshr);
  EXPECT_FALSE(merged.installed);
  EXPECT_FALSE(merged.evicted);
}

TEST(MemoryHierarchy, DirtyVictimWritesBackToL2) {
  Fixture f;
  f.miss(0x7000, 0, /*is_store=*/true);
  for (int i = 1; i <= 4; ++i) f.miss(0x7000 + i * f.stride, i * 100);
  EXPECT_FALSE(f.l1.probe(0x7000).has_value());
  // The victim line must be L2-resident, and clean there: nothing reads an
  // L2 dirty bit, since DRAM writeback is outside the energy scope.
  EXPECT_EQ(f.l2.invalidate(0x7000), std::optional<bool>(false));
}

TEST(MemoryHierarchy, MergeAfterEvictionReinstallsTheLine) {
  // A line evicted inside its own fill window, then missed again by a
  // store: the store merges onto the outstanding fill, the line is
  // installed again, and only that line turns dirty.
  Fixture f;
  const Addr a = 0x8000;
  const auto first = f.miss(a, 0);  // fill due at cycle 66
  for (int i = 1; i <= 4; ++i) f.miss(a + i * f.stride, i);  // evicts a
  ASSERT_FALSE(f.l1.probe(a).has_value());

  const auto out = f.miss(a, 10, /*is_store=*/true);
  EXPECT_TRUE(out.merged_mshr);
  EXPECT_EQ(out.ready_cycle, first.ready_cycle);
  EXPECT_EQ(f.l1.probe(a), std::optional<WayIdx>(out.l1_way));
  EXPECT_TRUE(out.installed);
  ASSERT_TRUE(out.evicted);
  EXPECT_EQ(out.evicted_line, a + f.stride);  // the LRU line
  EXPECT_EQ(f.l1.invalidate(a), std::optional<bool>(true));
  for (int i = 1; i <= 4; ++i)
    EXPECT_NE(f.l1.invalidate(a + i * f.stride), std::optional<bool>(true))
        << i;
}

TEST(MemoryHierarchy, MshrAvailability) {
  MemoryHierarchy::Params p;
  p.mshrs = 2;
  Fixture f;
  MemoryHierarchy h(f.l1, f.l2, p);
  EXPECT_TRUE(h.mshrAvailable(0));
  h.missAccess(0x100, 0, false, f.l1.allWays());
  h.missAccess(0x10000, 0, false, f.l1.allWays());
  EXPECT_FALSE(h.mshrAvailable(0));
  // After both fills complete, slots free up.
  EXPECT_TRUE(h.mshrAvailable(1000));
}

}  // namespace
}  // namespace malec::mem
