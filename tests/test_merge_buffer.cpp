#include "lsq/merge_buffer.h"

#include <gtest/gtest.h>

namespace malec::lsq {
namespace {

MergeBuffer makeMb(std::uint32_t cap = 4) {
  return MergeBuffer(cap, AddressLayout{});
}

TEST(MergeBuffer, AbsorbRequiresExistingLine) {
  MergeBuffer mb = makeMb();
  EXPECT_FALSE(mb.absorb(0x1000, 8));
  mb.allocate(0x1000, 8);
  EXPECT_TRUE(mb.absorb(0x1008, 8));   // same line
  EXPECT_FALSE(mb.absorb(0x1040, 8));  // next line
  EXPECT_EQ(mb.size(), 1u);
}

TEST(MergeBuffer, CapacityFourPerTableII) {
  MergeBuffer mb = makeMb();
  for (int i = 0; i < 4; ++i) mb.allocate(0x1000 + i * 64, 8);
  EXPECT_TRUE(mb.full());
}

TEST(MergeBuffer, EvictsLeastRecentlyMerged) {
  MergeBuffer mb = makeMb(2);
  mb.allocate(0x1000, 8);
  mb.allocate(0x2000, 8);
  mb.absorb(0x1008, 8);  // refresh line 0x1000
  const auto e = mb.evictLru();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->line_base, 0x2000u);
  EXPECT_EQ(mb.size(), 1u);
}

// ORDER CONTRACT regression: eviction selects the minimum LRU tick by
// scanning index order low-to-high and keeping the first strict
// improvement. Ticks are unique (every allocate/absorb takes a fresh one),
// so the victim is fully determined by merge recency — never by allocation
// index — and interleaved refreshes must rotate the victim accordingly.
TEST(MergeBuffer, OrderContractEvictionFollowsMergeRecencyNotIndex) {
  MergeBuffer mb = makeMb(3);
  mb.allocate(0x1000, 8);  // tick 1
  mb.allocate(0x2000, 8);  // tick 2
  mb.allocate(0x3000, 8);  // tick 3
  mb.absorb(0x1008, 8);    // index 0 refreshed last (tick 4)
  auto e = mb.evictLru();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->line_base, 0x2000u);  // stalest tick despite middle index
  mb.absorb(0x3010, 8);  // refresh 0x3000 (tick 5)
  mb.allocate(0x4000, 8);  // tick 6
  e = mb.evictLru();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->line_base, 0x1000u);  // now the stalest (tick 4)
  e = mb.evictLru();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->line_base, 0x3000u);
  e = mb.evictLru();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->line_base, 0x4000u);
  EXPECT_EQ(mb.size(), 0u);
}

TEST(MergeBuffer, EvictEmptyReturnsNothing) {
  MergeBuffer mb = makeMb();
  EXPECT_FALSE(mb.evictLru().has_value());
}

TEST(MergeBuffer, ByteMaskAccumulates) {
  MergeBuffer mb = makeMb();
  mb.allocate(0x1000, 8);
  mb.absorb(0x1008, 8);
  const auto e = mb.evictLru();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->byte_mask, 0xFFFFull);  // bytes 0..15 written
}

TEST(MergeBuffer, ForwardOnlyWhenAllBytesPresent) {
  MergeBuffer mb = makeMb();
  mb.allocate(0x1000, 8);  // bytes 0..7 of the line
  EXPECT_TRUE(mb.coversLoad(0x1000, 8));
  EXPECT_TRUE(mb.coversLoad(0x1004, 4));
  EXPECT_FALSE(mb.coversLoad(0x1008, 8));  // bytes not written
  EXPECT_FALSE(mb.coversLoad(0x1004, 8));  // half missing
  mb.absorb(0x1008, 8);
  EXPECT_TRUE(mb.coversLoad(0x1004, 8));
}

// The same line offset on another page is another line: no forward.
TEST(MergeBuffer, ForwardsOnlyFromTheLoadsOwnLine) {
  MergeBuffer mb = makeMb();
  mb.allocate(0x7'3000, 16);
  EXPECT_TRUE(mb.coversLoad(0x7'3000, 8));
  EXPECT_TRUE(mb.coversLoad(0x7'3008, 8));
  EXPECT_FALSE(mb.coversLoad(0x7'4000, 8));
}

TEST(MergeBuffer, LineSpanningMaskNearEnd) {
  MergeBuffer mb = makeMb();
  mb.allocate(0x1038, 8);  // last 8 bytes of the line
  const auto e = mb.evictLru();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->byte_mask, 0xFFull << 56);
}

TEST(MergeBufferDeath, AllocateWhenFullAborts) {
  MergeBuffer mb = makeMb(1);
  mb.allocate(0x1000, 8);
  EXPECT_DEATH(mb.allocate(0x2000, 8), "overflow");
}

}  // namespace
}  // namespace malec::lsq
