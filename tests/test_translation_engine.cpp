#include "core/translation_engine.h"

#include <gtest/gtest.h>

namespace malec::core {
namespace {

energy::EnergyAccount makeAccount() {
  energy::EnergyAccount ea;
  for (const char* e : {"utlb.search", "tlb.search", "utlb.psearch",
                        "tlb.psearch", "uwt.read", "uwt.write", "wt.read",
                        "wt.write"})
    ea.defineEvent(e, 1.0);
  return ea;
}

TranslationEngine::Params params(bool way_tables,
                                 std::uint32_t utlb = 16,
                                 std::uint32_t tlb = 64) {
  TranslationEngine::Params p;
  p.way_tables = way_tables;
  p.utlb_entries = utlb;
  p.tlb_entries = tlb;
  p.walk_latency = 30;
  return p;
}

TEST(TranslationEngine, ColdTranslationWalks) {
  auto ea = makeAccount();
  TranslationEngine te(params(true), ea);
  const auto r = te.translate(100);
  EXPECT_FALSE(r.utlb_hit);
  EXPECT_FALSE(r.tlb_hit);
  EXPECT_EQ(r.extra_latency, 30u);
  EXPECT_EQ(ea.eventCount("utlb.search"), 1u);
  EXPECT_EQ(ea.eventCount("tlb.search"), 1u);
}

TEST(TranslationEngine, SecondTranslationHitsUtlb) {
  auto ea = makeAccount();
  TranslationEngine te(params(true), ea);
  const auto first = te.translate(100);
  const auto second = te.translate(100);
  EXPECT_TRUE(second.utlb_hit);
  EXPECT_EQ(second.extra_latency, 0u);
  EXPECT_EQ(second.ppage, first.ppage);
  EXPECT_EQ(ea.eventCount("uwt.read"), 1u);  // delivered with the hit
}

TEST(TranslationEngine, UtlbEvictionFallsBackToTlb) {
  auto ea = makeAccount();
  TranslationEngine te(params(true, /*utlb=*/2, /*tlb=*/64), ea);
  te.translate(1);
  te.translate(2);
  te.translate(3);  // evicts one of {1,2} from the 2-entry uTLB
  // All three pages remain TLB-resident: a re-touch is at worst +1 cycle.
  for (PageId p = 1; p <= 3; ++p) {
    const auto r = te.translate(p);
    EXPECT_LE(r.extra_latency, 1u) << p;
  }
}

TEST(TranslationEngine, TranslationsAreStable) {
  auto ea = makeAccount();
  TranslationEngine te(params(true), ea);
  const PageId p1 = te.translate(500).ppage;
  for (int i = 0; i < 5; ++i) EXPECT_EQ(te.translate(500).ppage, p1);
}

TEST(TranslationEngine, WayFlowFillLookupEvict) {
  auto ea = makeAccount();
  TranslationEngine te(params(true), ea);
  const auto tr = te.translate(100);
  const AddressLayout L;
  const Addr vaddr = L.compose(100, 0x340);
  const Addr paddr = L.compose(tr.ppage, 0x340);

  // Unknown before any fill.
  EXPECT_EQ(te.wayFor(tr.uwt_slot, vaddr), kWayUnknown);
  // Line fill records the way (reverse physical lookup -> uWT).
  te.onLineFill(L.lineBase(paddr), 2);
  EXPECT_EQ(te.wayFor(tr.uwt_slot, vaddr), 2);
  EXPECT_GE(ea.eventCount("utlb.psearch"), 1u);
  // Eviction clears it.
  te.onLineEvict(L.lineBase(paddr));
  EXPECT_EQ(te.wayFor(tr.uwt_slot, vaddr), kWayUnknown);
}

TEST(TranslationEngine, FeedbackRepairsUnknown) {
  auto ea = makeAccount();
  TranslationEngine te(params(true), ea);
  const auto tr = te.translate(100);
  const AddressLayout L;
  const Addr vaddr = L.compose(100, 0x100);

  EXPECT_EQ(te.wayFor(tr.uwt_slot, vaddr), kWayUnknown);
  // A conventional access hit way 1: the last-entry register lets the uWT
  // be repaired without a uTLB lookup (Sec. V).
  const std::uint64_t uwt_writes = ea.eventCount("uwt.write");
  te.feedbackConventionalHit(100, vaddr, 1);
  EXPECT_EQ(te.wayFor(tr.uwt_slot, vaddr), 1);
  EXPECT_EQ(ea.eventCount("uwt.write"), uwt_writes + 1);
}

TEST(TranslationEngine, FeedbackDisabledDoesNothing) {
  auto ea = makeAccount();
  auto p = params(true);
  p.last_entry_feedback = false;
  TranslationEngine te(p, ea);
  const auto tr = te.translate(100);
  const std::uint64_t uwt_writes = ea.eventCount("uwt.write");
  te.feedbackConventionalHit(100, AddressLayout{}.compose(100, 0), 1);
  EXPECT_EQ(te.wayFor(tr.uwt_slot, AddressLayout{}.compose(100, 0)),
            kWayUnknown);
  EXPECT_EQ(ea.eventCount("uwt.write"), uwt_writes);
}

TEST(TranslationEngine, WithoutWayTablesAlwaysUnknown) {
  auto ea = makeAccount();
  TranslationEngine te(params(false), ea);
  const auto tr = te.translate(100);
  te.onLineFill(0x1000, 2);
  EXPECT_EQ(te.wayFor(tr.uwt_slot, 0x1000), kWayUnknown);
  EXPECT_EQ(ea.eventCount("uwt.read"), 0u);
  EXPECT_EQ(ea.eventCount("utlb.psearch"), 0u);
}

TEST(TranslationEngine, UwtWritebackToWtOnEviction) {
  auto ea = makeAccount();
  TranslationEngine te(params(true, /*utlb=*/1, /*tlb=*/64), ea);
  const AddressLayout L;
  // Page 100: learn a way while uTLB-resident.
  const auto tr1 = te.translate(100);
  const Addr paddr1 = L.compose(tr1.ppage, 0);
  te.onLineFill(L.lineBase(paddr1), 3);
  // Translating page 200 evicts page 100 from the 1-entry uTLB; the entry
  // must be written back to the WT and restored on the next touch.
  te.translate(200);
  EXPECT_GE(ea.eventCount("wt.write"), 1u);
  const auto tr1b = te.translate(100);
  EXPECT_EQ(te.wayFor(tr1b.uwt_slot, L.compose(100, 0)), 3);
}

TEST(TranslationEngine, TlbEvictionLosesWayInformation) {
  auto ea = makeAccount();
  TranslationEngine te(params(true, /*utlb=*/1, /*tlb=*/2), ea);
  const AddressLayout L;
  const auto tr = te.translate(100);
  te.onLineFill(L.lineBase(L.compose(tr.ppage, 0)), 2);
  // Two more pages displace page 100 from the 2-entry TLB entirely.
  te.translate(200);
  te.translate(300);
  // On re-access the page walks again and way info is gone (Sec. V).
  const auto tr2 = te.translate(100);
  EXPECT_EQ(tr2.extra_latency, 30u);
  EXPECT_EQ(te.wayFor(tr2.uwt_slot, L.compose(100, 0)), kWayUnknown);
}

TEST(TranslationEngine, FillForNonResidentPageUpdatesWtOnly) {
  auto ea = makeAccount();
  TranslationEngine te(params(true, /*utlb=*/1, /*tlb=*/64), ea);
  const AddressLayout L;
  const auto tr100 = te.translate(100);
  const Addr paddr100 = L.compose(tr100.ppage, 0);
  te.translate(200);  // 100 leaves the uTLB but stays in the TLB
  const auto uwt_writes = ea.eventCount("uwt.write");
  te.onLineFill(L.lineBase(paddr100), 1);
  // The fill must land in the WT (uWT has no entry for page 100).
  EXPECT_EQ(ea.eventCount("uwt.write"), uwt_writes);
  EXPECT_GE(ea.eventCount("tlb.psearch"), 1u);
  const auto back = te.translate(100);
  EXPECT_EQ(te.wayFor(back.uwt_slot, L.compose(100, 0)), 1);
}

}  // namespace
}  // namespace malec::core
