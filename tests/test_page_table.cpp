#include "tlb/page_table.h"

#include <gtest/gtest.h>

#include <map>

namespace malec::tlb {
namespace {

TEST(PageTable, TranslationsAreStable) {
  PageTable pt;
  const PageId p1 = pt.translate(100);
  const PageId p2 = pt.translate(100);
  EXPECT_EQ(p1, p2);
}

TEST(PageTable, BoundedByPhysicalPages) {
  PageTable pt(/*phys_pages=*/256, /*seed=*/1);
  for (PageId v = 0; v < 1000; ++v) EXPECT_LT(pt.translate(v), 256u);
}

TEST(PageTable, DifferentSeedsDifferentMappings) {
  PageTable a(65536, 1), b(65536, 2);
  int diffs = 0;
  for (PageId v = 0; v < 100; ++v) diffs += a.translate(v) != b.translate(v);
  EXPECT_GT(diffs, 90);
}

TEST(PageTable, SpreadsAcrossPhysicalSpace) {
  PageTable pt(65536, 7);
  std::map<PageId, int> buckets;  // 16 buckets over the physical space
  for (PageId v = 0; v < 4096; ++v) ++buckets[pt.translate(v) / 4096];
  EXPECT_GE(buckets.size(), 14u);  // roughly uniform occupancy
}

TEST(PageTable, WalkLatencyConfigurable) {
  PageTable pt;
  EXPECT_GT(pt.walkLatency(), 0u);
  pt.setWalkLatency(42);
  EXPECT_EQ(pt.walkLatency(), 42u);
}

// Revisited pages keep the frame their first translation assigned, and
// interleaved new pages never take a frame that is already mapped.
TEST(PageTable, RevisitedPagesKeepTheirFrame) {
  PageTable pt(/*phys_pages=*/4, /*seed=*/3);
  const PageId f1 = pt.translate(1);
  const PageId f2 = pt.translate(2);
  EXPECT_EQ(pt.translate(1), f1);
  const PageId f3 = pt.translate(3);
  EXPECT_EQ(pt.translate(2), f2);
  EXPECT_NE(f1, f2);
  EXPECT_NE(f1, f3);
  EXPECT_NE(f2, f3);
}

}  // namespace
}  // namespace malec::tlb
