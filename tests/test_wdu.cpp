#include "waydet/wdu.h"

#include <gtest/gtest.h>

namespace malec::waydet {
namespace {

TEST(Wdu, MissOnEmpty) {
  Wdu wdu(8);
  EXPECT_FALSE(wdu.lookup(0x100).has_value());
}

TEST(Wdu, RecordThenHit) {
  Wdu wdu(8);
  wdu.record(0x100, 2);
  const auto w = wdu.lookup(0x100);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, 2);
}

TEST(Wdu, RecordUpdatesExistingEntry) {
  Wdu wdu(8);
  wdu.record(0x100, 1);
  wdu.record(0x100, 3);
  EXPECT_EQ(wdu.lookup(0x100).value(), 3);
}

TEST(Wdu, LruEvictionWhenFull) {
  Wdu wdu(2);
  wdu.record(0x1, 0);
  wdu.record(0x2, 1);
  (void)wdu.lookup(0x1);  // refresh line 1
  wdu.record(0x3, 2);     // evicts 0x2
  EXPECT_TRUE(wdu.lookup(0x1).has_value());
  EXPECT_FALSE(wdu.lookup(0x2).has_value());
  EXPECT_TRUE(wdu.lookup(0x3).has_value());
}

TEST(Wdu, InvalidateDropsLine) {
  // The validity extension (paper VI-C): cache evictions invalidate WDU
  // entries so reduced accesses stay safe.
  Wdu wdu(4);
  wdu.record(0x10, 1);
  wdu.invalidate(0x10);
  EXPECT_FALSE(wdu.lookup(0x10).has_value());
  // Invalidating an absent line is a no-op.
  wdu.invalidate(0x999);
}

TEST(Wdu, CapacitySweepCoverage) {
  // Bigger WDUs track more lines — the coverage ordering behind the
  // paper's 8/16/32-entry sweep (68/76/78 %).
  for (std::uint32_t entries : {8u, 16u, 32u}) {
    Wdu wdu(entries);
    for (LineAddr l = 0; l < 32; ++l) wdu.record(l, static_cast<WayIdx>(l % 4));
    std::uint32_t hits = 0;
    for (LineAddr l = 0; l < 32; ++l) hits += wdu.lookup(l).has_value();
    EXPECT_EQ(hits, std::min(entries, 32u));
  }
}

TEST(Wdu, EntriesAccessor) {
  EXPECT_EQ(Wdu(16).entries(), 16u);
}

TEST(WduDeath, RecordingUnknownWayAborts) {
  Wdu wdu(4);
  EXPECT_DEATH(wdu.record(0x1, kWayUnknown), "MALEC_CHECK");
}

}  // namespace
}  // namespace malec::waydet
