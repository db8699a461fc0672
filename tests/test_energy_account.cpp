#include "energy/energy_account.h"

#include <gtest/gtest.h>

namespace malec::energy {
namespace {

TEST(EnergyAccount, CountsTimesEnergy) {
  EnergyAccount ea;
  const auto read = ea.defineEvent("read", 2.0);
  const auto write = ea.defineEvent("write", 3.0);
  ea.count(read, 10);
  ea.count(write);
  EXPECT_DOUBLE_EQ(ea.dynamicPj(), 23.0);
  EXPECT_EQ(ea.eventCount("read"), 10u);
  EXPECT_DOUBLE_EQ(ea.eventEnergyPj("write"), 3.0);
}

TEST(EnergyAccount, LeakageIntegratesOverTime) {
  EnergyAccount ea;
  ea.defineLeakage("l1", 2.0);  // mW
  ea.defineLeakage("tlb", 1.0);
  // 1000 cycles at 1 GHz = 1000 ns; 3 mW * 1000 ns = 3000 pJ.
  EXPECT_DOUBLE_EQ(ea.leakagePj(1000, 1.0), 3000.0);
  // At 2 GHz the same cycle count lasts half as long.
  EXPECT_DOUBLE_EQ(ea.leakagePj(1000, 2.0), 1500.0);
  EXPECT_DOUBLE_EQ(ea.leakageMw(), 3.0);
}

TEST(EnergyAccount, TotalCombines) {
  EnergyAccount ea;
  const auto e = ea.defineEvent("e", 5.0);
  ea.defineLeakage("s", 1.0);
  ea.count(e, 2);
  EXPECT_DOUBLE_EQ(ea.totalPj(100, 1.0), 10.0 + 100.0);
}

TEST(EnergyAccount, PrefixRollups) {
  EnergyAccount ea;
  const auto tag_read = ea.defineEvent("l1.tag_read", 1.0);
  const auto data_read = ea.defineEvent("l1.data_read", 2.0);
  const auto tlb_search = ea.defineEvent("tlb.search", 4.0);
  ea.count(tag_read, 3);
  ea.count(data_read, 3);
  ea.count(tlb_search, 1);
  EXPECT_DOUBLE_EQ(ea.dynamicPjFor("l1."), 9.0);
  EXPECT_DOUBLE_EQ(ea.dynamicPjFor("tlb."), 4.0);
  ea.defineLeakage("l1.tag", 0.5);
  ea.defineLeakage("l1.data", 1.5);
  ea.defineLeakage("wt", 0.25);
  EXPECT_DOUBLE_EQ(ea.leakageMwFor("l1."), 2.0);
}

TEST(EnergyAccount, RedefinitionOverwritesEnergyKeepsCount) {
  EnergyAccount ea;
  const auto e = ea.defineEvent("e", 1.0);
  ea.count(e, 4);
  ea.defineEvent("e", 2.0);
  EXPECT_EQ(ea.eventCount("e"), 4u);
  EXPECT_DOUBLE_EQ(ea.dynamicPj(), 8.0);
}

TEST(EnergyAccount, ClearCountsKeepsDefinitions) {
  EnergyAccount ea;
  const auto e = ea.defineEvent("e", 1.0);
  ea.count(e, 4);
  ea.clearCounts();
  EXPECT_EQ(ea.eventCount("e"), 0u);
  EXPECT_TRUE(ea.hasEvent("e"));
  ea.count(e);
  EXPECT_DOUBLE_EQ(ea.dynamicPj(), 1.0);
}

TEST(EnergyAccount, ReportContainsRollups) {
  EnergyAccount ea;
  const auto x = ea.defineEvent("x", 2.0);
  ea.defineLeakage("s", 1.0);
  ea.count(x, 5);
  const StatSet r = ea.report(200, 1.0);
  EXPECT_DOUBLE_EQ(r.get("count.x"), 5.0);
  EXPECT_DOUBLE_EQ(r.get("dyn_pj.x"), 10.0);
  EXPECT_DOUBLE_EQ(r.get("leak_mw.s"), 1.0);
  EXPECT_DOUBLE_EQ(r.get("total.dynamic_pj"), 10.0);
  EXPECT_DOUBLE_EQ(r.get("total.leakage_pj"), 200.0);
  EXPECT_DOUBLE_EQ(r.get("total.energy_pj"), 210.0);
}

TEST(EnergyAccount, DefineEventReturnsStableDenseIds) {
  EnergyAccount ea;
  const auto a = ea.defineEvent("a", 1.0);
  const auto b = ea.defineEvent("b", 2.0);
  EXPECT_NE(a, b);
  EXPECT_EQ(ea.eventTypes(), 2u);
  // Redefinition keeps the id and the count, overwrites the energy.
  ea.count(a, 3);
  EXPECT_EQ(ea.defineEvent("a", 5.0), a);
  EXPECT_EQ(ea.eventCount(a), 3u);
  EXPECT_DOUBLE_EQ(ea.eventEnergyPj(a), 5.0);
  EXPECT_EQ(ea.eventTypes(), 2u);
}

TEST(EnergyAccount, ResolveEventDefinesZeroEnergyPlaceholder) {
  // Components resolve their ids at construction; the energy tables may
  // attach the real per-event energies afterwards.
  EnergyAccount ea;
  const auto id = ea.resolveEvent("l1.ctrl");
  EXPECT_TRUE(ea.hasEvent("l1.ctrl"));
  EXPECT_DOUBLE_EQ(ea.eventEnergyPj(id), 0.0);
  ea.count(id, 7);
  EXPECT_EQ(ea.defineEvent("l1.ctrl", 0.45), id);
  EXPECT_EQ(ea.eventCount("l1.ctrl"), 7u);
  EXPECT_DOUBLE_EQ(ea.dynamicPj(), 7 * 0.45);
}

TEST(EnergyAccountDeath, OutOfRangeEventIdAborts) {
  EnergyAccount ea;
  ea.defineEvent("only", 1.0);
  EXPECT_DEATH(ea.count(static_cast<EnergyAccount::EventId>(99)), "events_");
}

}  // namespace
}  // namespace malec::energy
