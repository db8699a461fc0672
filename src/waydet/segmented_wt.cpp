#include "waydet/segmented_wt.h"

#include "common/check.h"

namespace malec::waydet {

namespace {

/// Bits to index `n` values: ceil(log2(n)), 0 for n <= 1.
std::uint32_t indexBits(std::uint32_t n) {
  std::uint32_t bits = 0;
  for (std::uint32_t v = 1; v < n; v <<= 1) ++bits;
  return bits;
}

}  // namespace

std::uint32_t segmentedWtStorageBits(const SegmentedWtGeometry& g) {
  MALEC_CHECK(g.lines_per_chunk >= 1);
  MALEC_CHECK(g.lines_per_page % g.lines_per_chunk == 0);
  const std::uint32_t tag_bits =
      1 + indexBits(g.slots) + indexBits(g.lines_per_page / g.lines_per_chunk);
  return g.chunks * (2 * g.lines_per_chunk + tag_bits);
}

std::uint32_t flatWtStorageBits(const SegmentedWtGeometry& g) {
  return g.slots * 2 * g.lines_per_page;
}

}  // namespace malec::waydet
