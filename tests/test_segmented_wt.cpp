#include "waydet/segmented_wt.h"

#include <gtest/gtest.h>

namespace malec::waydet {
namespace {

SegmentedWtGeometry geometry(std::uint32_t chunks,
                             std::uint32_t lines_per_page) {
  SegmentedWtGeometry g;
  g.slots = 64;
  g.lines_per_page = lines_per_page;
  g.lines_per_chunk = 16;
  g.chunks = chunks;
  return g;
}

TEST(SegmentedWt, StorageSavingsForWidePages) {
  // The Sec. VI-D scenario: 64 KByte pages => 1024 lines/page. A flat WT
  // would need 64 x 2048 bits; a 64-chunk pool stays near the 4 KByte-page
  // footprint.
  const SegmentedWtGeometry g = geometry(/*chunks=*/64,
                                         /*lines_per_page=*/1024);
  EXPECT_LT(segmentedWtStorageBits(g) * 10, flatWtStorageBits(g));
}

TEST(SegmentedWt, StorageTableOfTheWayEncodingSuite) {
  // The way_encoding suite's "Segmented WT" table: 64-entry TLB, 64-byte
  // lines, 16-line chunks. A chunk's tag is valid + 6 slot bits + the
  // chunk index within the page (2, 4 or 6 bits).
  struct Row {
    std::uint32_t page_kb, seg64, seg128, flat;
  };
  for (const Row& r : {Row{4, 2'624, 5'248, 8'192},
                       Row{16, 2'752, 5'504, 32'768},
                       Row{64, 2'880, 5'760, 131'072}}) {
    const std::uint32_t lines = r.page_kb * 1024 / 64;
    EXPECT_EQ(segmentedWtStorageBits(geometry(64, lines)), r.seg64)
        << r.page_kb << " KB";
    EXPECT_EQ(segmentedWtStorageBits(geometry(128, lines)), r.seg128)
        << r.page_kb << " KB";
    EXPECT_EQ(flatWtStorageBits(geometry(64, lines)), r.flat)
        << r.page_kb << " KB";
  }
}

}  // namespace
}  // namespace malec::waydet
