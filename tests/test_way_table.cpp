#include "waydet/way_table.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace malec::waydet {
namespace {

WayTable makeWt(std::uint32_t slots = 16) { return WayTable(slots, 64, 4, 4); }

TEST(WayTable, StartsAllUnknown) {
  WayTable wt = makeWt();
  for (std::uint32_t s = 0; s < wt.slots(); ++s)
    for (std::uint32_t l = 0; l < wt.linesPerPage(); ++l)
      EXPECT_EQ(wt.lookup(s, l, 0), kWayUnknown);
}

TEST(WayTable, RecordLookupRoundTrip) {
  WayTable wt = makeWt();
  wt.record(3, 17, /*salt=*/5, 2);
  EXPECT_EQ(wt.lookup(3, 17, 5), 2);
  // Other slots/lines unaffected.
  EXPECT_EQ(wt.lookup(3, 18, 5), kWayUnknown);
  EXPECT_EQ(wt.lookup(4, 17, 5), kWayUnknown);
}

TEST(WayTable, RecordingExcludedWayDegradesToUnknown) {
  WayTable wt = makeWt();
  const std::uint32_t line = 9, salt = 0;
  const std::uint32_t excl = wt.excluded(line, salt);
  wt.record(0, line, salt, excl);
  EXPECT_EQ(wt.lookup(0, line, salt), kWayUnknown);
}

TEST(WayTable, ClearLineResetsValidity) {
  WayTable wt = makeWt();
  wt.record(1, 5, 0, 2);
  wt.clearLine(1, 5);
  EXPECT_EQ(wt.lookup(1, 5, 0), kWayUnknown);
}

TEST(WayTable, InvalidateSlotClearsAllLines) {
  WayTable wt = makeWt();
  for (std::uint32_t l = 0; l < 64; ++l)
    wt.record(2, l, 0, (l + 1) % 4);  // some degrade to unknown; fine
  wt.invalidateSlot(2);
  for (std::uint32_t l = 0; l < 64; ++l)
    EXPECT_EQ(wt.lookup(2, l, 0), kWayUnknown) << l;
}

TEST(WayTable, FullEntryTransferPreservesCodes) {
  // The uWT<->WT synchronisation moves whole entries (Sec. V).
  WayTable wt = makeWt(64);
  WayTable uwt = makeWt(16);
  Rng rng(5);
  for (std::uint32_t l = 0; l < 64; ++l)
    wt.record(10, l, 7, static_cast<std::uint32_t>(rng.below(4)));
  uwt.copyEntryFrom(3, wt, 10);
  for (std::uint32_t l = 0; l < 64; ++l)
    EXPECT_EQ(uwt.lookup(3, l, 7), wt.lookup(10, l, 7)) << l;
}

TEST(WayTable, EntryBitsMatchPaperFormat) {
  WayTable wt = makeWt();
  // 64 lines x 2 bits = 128-bit entries; naive format 64 x (1+2) = 192.
  EXPECT_EQ(wt.entryBits(), 128u);
  EXPECT_EQ(wt.naiveEntryBits(), 192u);
  // One third area/leakage saving (Sec. V).
  EXPECT_NEAR(1.0 - static_cast<double>(wt.entryBits()) / wt.naiveEntryBits(),
              1.0 / 3.0, 1e-9);
}

TEST(WayTable, SaltChangesDecodingOfSameCode) {
  WayTable wt = makeWt();
  wt.record(0, 0, /*salt=*/1, 3);
  // Looking the same stored code up under a different salt decodes to a
  // different way — salts must be used consistently by the caller.
  EXPECT_EQ(wt.lookup(0, 0, 1), 3);
  EXPECT_NE(wt.lookup(0, 0, 2), kWayUnknown);
}

TEST(LastEntryRegister, MatchesMostRecent) {
  LastEntryRegister ler(2);
  ler.push(3, 100);
  ler.push(5, 200);
  EXPECT_EQ(ler.match(100).value(), 3u);
  EXPECT_EQ(ler.match(200).value(), 5u);
  EXPECT_FALSE(ler.match(300).has_value());
}

TEST(LastEntryRegister, DepthBoundsHistory) {
  LastEntryRegister ler(1);
  ler.push(3, 100);
  ler.push(5, 200);
  EXPECT_FALSE(ler.match(100).has_value());  // displaced
  EXPECT_TRUE(ler.match(200).has_value());
}

TEST(LastEntryRegister, DuplicatePushesDoNotEvict) {
  LastEntryRegister ler(2);
  ler.push(3, 100);
  ler.push(5, 200);
  ler.push(3, 100);  // already present: FIFO unchanged
  EXPECT_TRUE(ler.match(100).has_value());
  EXPECT_TRUE(ler.match(200).has_value());
}

// Property: record/lookup round-trips across random slots, lines, salts.
TEST(WayTable, RandomisedRoundTrip) {
  WayTable wt = makeWt(64);
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    const auto slot = static_cast<std::uint32_t>(rng.below(64));
    const auto line = static_cast<std::uint32_t>(rng.below(64));
    const auto salt = static_cast<std::uint32_t>(rng.below(1 << 20));
    const auto way = static_cast<std::uint32_t>(rng.below(4));
    wt.record(slot, line, salt, way);
    const WayIdx got = wt.lookup(slot, line, salt);
    if (way == wt.excluded(line, salt)) {
      EXPECT_EQ(got, kWayUnknown);
    } else {
      EXPECT_EQ(got, static_cast<WayIdx>(way));
    }
  }
}

}  // namespace
}  // namespace malec::waydet
