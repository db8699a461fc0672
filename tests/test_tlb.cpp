#include "tlb/tlb.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace malec::tlb {
namespace {

Tlb::Params params(std::uint32_t entries,
                   mem::ReplacementKind k = mem::ReplacementKind::kRandom) {
  Tlb::Params p;
  p.entries = entries;
  p.replacement = k;
  return p;
}

TEST(Tlb, MissThenHit) {
  Tlb t(params(4));
  EXPECT_FALSE(t.lookupV(10).has_value());
  const std::uint32_t slot = t.insert(10, 99).slot;
  const auto hit = t.lookupV(10);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, slot);
  EXPECT_EQ(t.entry(slot).ppage, 99u);
}

TEST(Tlb, ReverseLookupByPhysicalPage) {
  Tlb t(params(4));
  t.insert(10, 99);
  t.insert(11, 77);
  const auto slot = t.lookupP(77);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(t.entry(*slot).vpage, 11u);
  EXPECT_FALSE(t.lookupP(1234).has_value());
}

// A probe leaves replacement state alone: after a probe of the first page
// the second-chance victim is still that page; after a lookup, whose
// touch grants it a second chance, the victim is the other one.
TEST(Tlb, ProbeDoesNotTouchReplacement) {
  Tlb probed(params(2, mem::ReplacementKind::kSecondChance));
  probed.insert(1, 10);
  probed.insert(2, 20);
  EXPECT_TRUE(probed.probeV(1).has_value());
  EXPECT_EQ(probed.insert(3, 30).displaced.vpage, 1u);

  Tlb looked_up(params(2, mem::ReplacementKind::kSecondChance));
  looked_up.insert(1, 10);
  looked_up.insert(2, 20);
  EXPECT_TRUE(looked_up.lookupV(1).has_value());
  EXPECT_EQ(looked_up.insert(3, 30).displaced.vpage, 2u);
}

TEST(Tlb, InsertExistingUpdatesInPlace) {
  Tlb t(params(4));
  const auto s1 = t.insert(7, 70);
  const auto s2 = t.insert(7, 71);
  EXPECT_EQ(s1.slot, s2.slot);
  EXPECT_FALSE(s2.displaced.valid);
  EXPECT_EQ(t.entry(s1.slot).ppage, 71u);
}

TEST(Tlb, InsertReportsTheDisplacedEntry) {
  Tlb t(params(2));
  EXPECT_FALSE(t.insert(1, 10).displaced.valid);
  EXPECT_FALSE(t.insert(2, 20).displaced.valid);
  const Tlb::Insertion ins = t.insert(3, 30);  // evicts one of {1,2}
  ASSERT_TRUE(ins.displaced.valid);
  const PageId gone = ins.displaced.vpage;
  EXPECT_TRUE(gone == 1 || gone == 2);
  EXPECT_EQ(ins.displaced.ppage, gone * 10);
  EXPECT_EQ(t.entry(ins.slot).vpage, 3u);
  EXPECT_FALSE(t.probeV(gone).has_value());
}

TEST(Tlb, InvalidateFreesSlot) {
  Tlb t(params(2));
  const auto slot = t.insert(1, 10).slot;
  t.invalidate(slot);
  EXPECT_FALSE(t.lookupV(1).has_value());
  // The freed slot is reused without an eviction.
  EXPECT_FALSE(t.insert(2, 20).displaced.valid);
}

TEST(Tlb, SecondChanceKeepsHotPage) {
  Tlb t(params(4, mem::ReplacementKind::kSecondChance));
  for (PageId p = 0; p < 4; ++p) t.insert(p, p + 100);
  // Page 0 is re-referenced before every insertion; it must survive a long
  // stream of conflicting pages (the uTLB hot-page property, Sec. V).
  for (PageId p = 10; p < 30; ++p) {
    EXPECT_TRUE(t.lookupV(0).has_value()) << "hot page evicted at " << p;
    t.insert(p, p + 100);
  }
}

TEST(Tlb, SixtyFourEntryFullCapacity) {
  Tlb t(params(64));
  for (PageId p = 0; p < 64; ++p)
    EXPECT_FALSE(t.insert(p, p).displaced.valid) << p;
  std::uint32_t present = 0;
  for (PageId p = 0; p < 64; ++p) present += t.probeV(p).has_value();
  EXPECT_EQ(present, 64u);
  EXPECT_TRUE(t.insert(100, 100).displaced.valid);
}

TEST(Tlb, SlotsAreStableAcrossHits) {
  Tlb t(params(8));
  const auto slot = t.insert(42, 4200).slot;
  for (int i = 0; i < 10; ++i) {
    const auto h = t.lookupV(42);
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(*h, slot);
  }
}

}  // namespace
}  // namespace malec::tlb
