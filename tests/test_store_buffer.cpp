#include "lsq/store_buffer.h"

#include <gtest/gtest.h>

namespace malec::lsq {
namespace {

StoreBuffer makeSb(std::uint32_t cap = 24) {
  return StoreBuffer(cap);
}

TEST(StoreBuffer, InsertAndCapacity) {
  StoreBuffer sb = makeSb(2);
  sb.insert(1, 0x1000, 8);
  EXPECT_FALSE(sb.full());
  sb.insert(2, 0x2000, 8);
  EXPECT_TRUE(sb.full());
  EXPECT_EQ(sb.size(), 2u);
}

TEST(StoreBuffer, CommittedDrainInOrder) {
  StoreBuffer sb = makeSb();
  sb.insert(1, 0x1000, 8);
  sb.insert(2, 0x2000, 8);
  sb.insert(3, 0x3000, 8);
  EXPECT_FALSE(sb.popCommitted().has_value());
  sb.markCommitted(2);
  sb.markCommitted(1);
  // Oldest committed first (buffer order, not commit order).
  auto e = sb.popCommitted();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->seq, 1u);
  e = sb.popCommitted();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->seq, 2u);
  EXPECT_FALSE(sb.popCommitted().has_value());
  EXPECT_EQ(sb.size(), 1u);  // store 3 still speculative
}

TEST(StoreBuffer, ForwardingRequiresFullContainment) {
  StoreBuffer sb = makeSb();
  sb.insert(1, 0x1000, 8);
  EXPECT_TRUE(sb.coversLoad(0x1000, 8));
  EXPECT_TRUE(sb.coversLoad(0x1004, 4));
  EXPECT_FALSE(sb.coversLoad(0x1004, 8));  // spills past the store
  EXPECT_FALSE(sb.coversLoad(0x0FFC, 8));  // starts before it
  EXPECT_FALSE(sb.coversLoad(0x2000, 8));
}

// Any one buffered store covering the load forwards it, whichever page the
// other stores sit on; the same offset on another page does not.
TEST(StoreBuffer, ForwardsFromTheCoveringStoreAmongMany) {
  StoreBuffer sb = makeSb();
  sb.insert(1, 0x10'1000, 8);
  sb.insert(2, 0x10'1010, 8);
  sb.insert(3, 0x10'1020, 8);
  sb.insert(4, 0x20'0000, 8);
  EXPECT_TRUE(sb.coversLoad(0x10'1010, 8));
  EXPECT_TRUE(sb.coversLoad(0x20'0004, 4));
  EXPECT_FALSE(sb.coversLoad(0x20'1010, 8));
  EXPECT_FALSE(sb.coversLoad(0x10'1030, 8));
}

// ORDER CONTRACT regression: commits arrive in arbitrary order relative to
// buffer (insertion) order, pops interleave with fresh inserts, and
// popCommitted must always yield the lowest-index committed entry — the
// committed bitmask has to shift correctly over every erase, or a later pop
// returns the wrong store (silent wrong-data forwarding downstream).
TEST(StoreBuffer, OrderContractCommitMaskSurvivesInterleavedPops) {
  StoreBuffer sb = makeSb();
  sb.insert(1, 0x1000, 8);
  sb.insert(2, 0x2000, 8);
  sb.insert(3, 0x3000, 8);
  sb.insert(4, 0x4000, 8);
  sb.markCommitted(3);  // out of buffer order
  sb.markCommitted(1);
  auto e = sb.popCommitted();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->seq, 1u);  // lowest committed index, not first commit
  sb.insert(5, 0x5000, 8);  // new youngest while 3 is still pending
  sb.markCommitted(4);
  e = sb.popCommitted();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->seq, 3u);  // mask shifted over the erase of seq 1
  e = sb.popCommitted();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->seq, 4u);
  EXPECT_FALSE(sb.popCommitted().has_value());
  sb.markCommitted(2);
  sb.markCommitted(5);
  e = sb.popCommitted();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->seq, 2u);  // still older than 5 in buffer order
  e = sb.popCommitted();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->seq, 5u);
  EXPECT_EQ(sb.size(), 0u);
}

TEST(StoreBuffer, TableIICapacityDefault) {
  StoreBuffer sb = makeSb();
  for (std::uint32_t i = 0; i < 24; ++i) sb.insert(i, 0x1000 + i * 8, 8);
  EXPECT_TRUE(sb.full());
}

TEST(StoreBufferDeath, OverflowAborts) {
  StoreBuffer sb = makeSb(1);
  sb.insert(1, 0x1000, 8);
  EXPECT_DEATH(sb.insert(2, 0x2000, 8), "overflow");
}

TEST(StoreBufferDeath, CommitUnknownAborts) {
  StoreBuffer sb = makeSb();
  EXPECT_DEATH(sb.markCommitted(5), "unknown");
}

}  // namespace
}  // namespace malec::lsq
