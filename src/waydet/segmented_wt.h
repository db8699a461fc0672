// Segmented Way Table storage — the paper's Sec. VI-D extension for wide
// pages.
//
// With pages larger than 4 KByte, a flat WT entry grows linearly (2 bits
// per line), which the paper flags as the one scaling concern of
// Page-Based Way Determination. Its suggested remedies: quantise TLB
// entries into 4 KByte segments, or segment the WT itself — "by allocating
// and replacing WT chunks in a FIFO or LRU manner, their number could be
// smaller than required to represent full pages".
//
// A segmented WT stores way codes in fixed-size chunks covering
// `lines_per_chunk` consecutive lines of a page; a small pool of chunks is
// shared by all TLB slots. No preset routes one into a run: what the
// reproduction reports (the way_encoding suite) is its storage against a
// flat WT's, and these two formulas are that comparison.
#pragma once

#include <cstdint>

namespace malec::waydet {

struct SegmentedWtGeometry {
  std::uint32_t slots = 64;           ///< companion TLB entries
  std::uint32_t lines_per_page = 64;  ///< grows with page size
  std::uint32_t lines_per_chunk = 16; ///< chunk granularity
  std::uint32_t chunks = 64;          ///< pooled chunk count
};

/// Storage bits of a segmented WT: chunk payloads (2 bits per line) plus a
/// tag per chunk (slot id + chunk index within the page + valid).
[[nodiscard]] std::uint32_t segmentedWtStorageBits(
    const SegmentedWtGeometry& g);

/// Bits a flat WT for the same slots and page size would need.
[[nodiscard]] std::uint32_t flatWtStorageBits(const SegmentedWtGeometry& g);

}  // namespace malec::waydet
