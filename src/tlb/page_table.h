// Deterministic flat page table.
//
// Virtual pages map to physical pages through a keyed mixing function plus
// linear probing, so translations are stable across a run and distinct
// pages NEVER collide while free frames remain (way-table validity
// maintenance keys off the physical page and silently breaks under frame
// aliasing). The mapping depends on first-touch order, which is itself
// deterministic for every trace source. Assignments are memoised (needed
// for probing and for reverse lookups in tests).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "common/types.h"

namespace malec::ckpt {
class StateReader;
class StateWriter;
}  // namespace malec::ckpt

namespace malec::tlb {

class PageTable {
 public:
  /// `phys_pages` bounds the physical page space (256 MByte DRAM / 4 KByte
  /// pages = 65536 by default, paper Table II).
  explicit PageTable(std::uint32_t phys_pages = 65536,
                     std::uint64_t seed = 0xA5A5);

  /// Translate a virtual page ID to a physical page ID. Stable per run.
  [[nodiscard]] PageId translate(PageId vpage);

  /// Cycles a hardware page walk takes on a TLB miss.
  [[nodiscard]] Cycle walkLatency() const { return walk_latency_; }
  void setWalkLatency(Cycle c) { walk_latency_ = c; }

  /// Checkpoint/restore of all mutable state; restore requires an
  /// a page table built with the same seed and frame count.
  void saveState(ckpt::StateWriter& w) const;
  void loadState(ckpt::StateReader& r);

 private:
  std::uint32_t phys_pages_;  // lint:no-state(config; restore binds by fingerprint)
  std::uint64_t seed_;        // lint:no-state(config; restore binds by fingerprint)
  Cycle walk_latency_ = 30;   // lint:no-state(config)
  std::unordered_map<PageId, PageId> map_;
  std::unordered_set<PageId> used_;  // lint:no-state(derived; rebuilt from map_ in loadState)
};

}  // namespace malec::tlb
