// One set-associative tag/state array with true-LRU replacement, built
// once per structure: the L1 data cache (paper Table II: 32 KByte, 4-way,
// 64-byte lines), the unified L2 (1 MByte, 16-way) and the WDU's fully
// associative line store (Sec. VI-C: one set, 1-byte "lines", so a tag is
// the whole line address). This class models tag state and replacement
// only; timing (latencies, pending fills) lives in the L1 back end's miss
// path and the interface models, and energy is accounted by the L1 back
// end from the outcomes this class reports.
//
// `fill` takes the ways a line may be allocated into. The L1 back end
// passes all ways but the line's WT-excluded one when Way Tables encode
// ways (Sec. V; see waydet/way_info.h); everything else passes allWays().
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "mem/replacement.h"

namespace malec::ckpt {
class StateReader;
class StateWriter;
}  // namespace malec::ckpt

namespace malec::mem {

/// Table II's L2: 1 MByte, 16-way set-associative, with the L1's line size.
inline constexpr std::uint64_t kL2Bytes = 1ull << 20;
inline constexpr std::uint32_t kL2Ways = 16;

class Cache {
 public:
  struct FillResult {
    WayIdx way = kWayUnknown;        ///< way the new line landed in
    bool evicted = false;            ///< a valid line was displaced
    Addr evicted_line_base = 0;      ///< line base of the victim
    bool evicted_dirty = false;      ///< victim needs writeback
  };

  /// `sets` and `line_bytes` are powers of two; 1 <= `ways` <= 64.
  Cache(std::uint32_t sets, std::uint32_t ways, std::uint32_t line_bytes);

  /// Pure tag probe: hit way or nullopt. Does not update replacement state.
  [[nodiscard]] std::optional<WayIdx> probe(Addr paddr) const {
    const std::uint64_t want = (tagOf(paddr) << kTagShift) | kValid;
    const std::uint64_t* row =
        &lines_[static_cast<std::size_t>(setOf(paddr)) * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w)
      if ((row[w] & ~kDirty) == want) return static_cast<WayIdx>(w);
    return std::nullopt;
  }

  /// Record a hit for replacement purposes.
  void touch(Addr paddr, WayIdx way) {
    repl_.touch(setOf(paddr), static_cast<std::uint32_t>(way));
  }

  /// Allocate `paddr`'s line into one of `allowed_ways` (bit i = way i),
  /// an invalid one first, else the least recently used, evicting it. The
  /// caller has established the miss (probe() == nullopt).
  FillResult fill(Addr paddr, std::uint64_t allowed_ways);

  /// Mark a resident line dirty (stores / merge-buffer writes).
  void markDirty(Addr paddr, WayIdx way);

  /// Invalidate a line if present; returns whether it was dirty.
  std::optional<bool> invalidate(Addr paddr);

  /// Every way: the `fill` mask of an unrestricted allocation.
  [[nodiscard]] std::uint64_t allWays() const {
    return ways_ == 64 ? ~0ull : (1ull << ways_) - 1;
  }
  [[nodiscard]] Addr lineBase(Addr paddr) const {
    return paddr & ~((Addr{1} << line_bits_) - 1);
  }
  [[nodiscard]] std::uint32_t ways() const { return ways_; }

  /// Checkpoint/restore of all mutable state; restore requires an
  /// identically-configured instance (geometry mismatches abort).
  void saveState(ckpt::StateWriter& w) const;
  void loadState(ckpt::StateReader& r);

 private:
  // A line is one word: `tag << kTagShift | dirty << 1 | valid`. The L2's
  // 16,384 lines take 128 KB instead of the 256 KB a padded
  // {bool, bool, u64} takes, and a 16-way probe reads two host cache lines
  // instead of four. A tag therefore has at most 62 bits.
  static constexpr std::uint64_t kValid = 1;
  static constexpr std::uint64_t kDirty = 2;
  static constexpr std::uint32_t kTagShift = 2;

  [[nodiscard]] std::uint32_t setOf(Addr paddr) const {
    return static_cast<std::uint32_t>((paddr >> line_bits_) & (sets_ - 1));
  }
  [[nodiscard]] std::uint64_t tagOf(Addr paddr) const {
    return paddr >> (line_bits_ + set_bits_);
  }
  [[nodiscard]] std::uint64_t& line(std::uint32_t set, std::uint32_t way) {
    return lines_[static_cast<std::size_t>(set) * ways_ + way];
  }

  std::uint32_t sets_;       // lint:no-state(geometry; load checks line count)
  std::uint32_t ways_;       // lint:no-state(geometry; load checks line count)
  std::uint32_t line_bits_;  // lint:no-state(geometry)
  std::uint32_t set_bits_;   // lint:no-state(geometry)
  std::vector<std::uint64_t> lines_;  ///< sets x ways, packed as above
  LruPolicy repl_;
};

}  // namespace malec::mem
