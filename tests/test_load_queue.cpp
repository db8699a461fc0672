#include "lsq/load_queue.h"

#include <gtest/gtest.h>

namespace malec::lsq {
namespace {

TEST(LoadQueue, CapacityEnforced) {
  LoadQueue lq(3);
  lq.allocate(1);
  lq.allocate(2);
  lq.allocate(3);
  EXPECT_TRUE(lq.full());
  EXPECT_EQ(lq.size(), 3u);
  EXPECT_EQ(lq.capacity(), 3u);
}

TEST(LoadQueue, ReleaseFreesSlot) {
  LoadQueue lq(2);
  lq.allocate(10);
  lq.allocate(11);
  lq.release(10);
  EXPECT_FALSE(lq.full());
  lq.allocate(12);
  EXPECT_TRUE(lq.full());
}

TEST(LoadQueue, OccupancyFollowsAllocateAndRelease) {
  LoadQueue lq(8);
  lq.allocate(1);
  lq.allocate(2);
  lq.allocate(3);
  EXPECT_EQ(lq.size(), 3u);
  lq.release(1);
  lq.release(2);
  lq.allocate(4);
  EXPECT_EQ(lq.size(), 2u);
}

TEST(LoadQueue, DefaultMatchesTableII) {
  LoadQueue lq;
  EXPECT_EQ(lq.capacity(), 40u);
}

TEST(LoadQueueDeath, OverflowAborts) {
  LoadQueue lq(1);
  lq.allocate(1);
  EXPECT_DEATH(lq.allocate(2), "overflow");
}

TEST(LoadQueueDeath, DuplicateAllocationAborts) {
  LoadQueue lq(4);
  lq.allocate(1);
  EXPECT_DEATH(lq.allocate(1), "duplicate");
}

TEST(LoadQueueDeath, UnknownReleaseAborts) {
  LoadQueue lq(4);
  EXPECT_DEATH(lq.release(9), "unknown");
}

}  // namespace
}  // namespace malec::lsq
