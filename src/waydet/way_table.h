// Way Tables: the storage half of Page-Based Way Determination.
//
// A WayTable is a RAM with one entry per slot of its companion TLB; entry i
// holds the 2-bit validity+way codes for every cache line of the page that
// TLB slot i currently maps (paper Fig. 3). A TLB hit therefore delivers,
// together with the translation, way information for *all* lines of the
// page — servicing every access of the cycle's page group simultaneously.
//
// Two instances exist: the WT (64 entries, coupled to the TLB) and the uWT
// (16 entries, coupled to the uTLB). Synchronisation (Sec. V):
//   * uTLB miss / TLB hit: the WT entry is copied into the uWT slot;
//   * uWT eviction: the (possibly updated) entry is written back to the WT;
//   * TLB eviction: the WT entry is invalidated — way information for that
//     page is lost even if its lines stay resident;
//   * line fill/eviction: validity maintenance through reverse (physical)
//     TLB lookups — the uWT is updated if the page is uTLB-resident, else
//     the WT ("the WT is only updated if no corresponding uWT entry was
//     found");
//   * "way unknown" answer followed by a conventional hit: the uWT slot is
//     repaired through the last-entry register without a new uTLB lookup.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "waydet/way_info.h"

namespace malec::ckpt {
class StateReader;
class StateWriter;
}  // namespace malec::ckpt

namespace malec::waydet {

class WayTable {
 public:
  /// `slots` must equal the companion TLB's entry count.
  WayTable(std::uint32_t slots, std::uint32_t lines_per_page,
           std::uint32_t banks, std::uint32_t assoc);

  /// Decoded way for (slot, line) in a page with salt `page_salt`, or
  /// kWayUnknown.
  [[nodiscard]] WayIdx lookup(std::uint32_t slot, std::uint32_t line_in_page,
                              std::uint32_t page_salt) const;

  /// Record `way` for (slot, line). Recording the line's excluded way
  /// degrades to unknown by construction of the encoding.
  void record(std::uint32_t slot, std::uint32_t line_in_page,
              std::uint32_t page_salt, std::uint32_t way);

  /// Clear one line's validity (cache eviction).
  void clearLine(std::uint32_t slot, std::uint32_t line_in_page);

  /// Invalidate a whole entry (TLB eviction / new page allocation).
  void invalidateSlot(std::uint32_t slot);

  /// Full-entry uWT<->WT transfer: overwrite entry `slot` with entry
  /// `src_slot` of `src` in place (both tables share the page geometry).
  void copyEntryFrom(std::uint32_t slot, const WayTable& src,
                     std::uint32_t src_slot);

  [[nodiscard]] std::uint32_t slots() const { return slots_; }
  [[nodiscard]] std::uint32_t linesPerPage() const { return lines_per_page_; }
  /// Bits per entry under the paper's combined encoding (128 by default).
  [[nodiscard]] std::uint32_t entryBits() const { return 2 * lines_per_page_; }
  /// Bits per entry under the naive separate valid+way encoding (192).
  [[nodiscard]] std::uint32_t naiveEntryBits() const;

  [[nodiscard]] std::uint32_t excluded(std::uint32_t line_in_page,
                                       std::uint32_t page_salt) const {
    return excludedWay(line_in_page, page_salt, banks_, assoc_);
  }

  /// Checkpoint/restore of all mutable state; restore requires an
  /// identically-configured instance (geometry mismatches abort).
  void saveState(ckpt::StateWriter& w) const;
  void loadState(ckpt::StateReader& r);

 private:
  std::uint32_t slots_;  // lint:no-state(geometry; load checks code count)
  std::uint32_t lines_per_page_;  // lint:no-state(geometry; load checks code count)
  std::uint32_t banks_;  // lint:no-state(config)
  std::uint32_t assoc_;  // lint:no-state(config)
  std::vector<WayCode> codes_;  ///< slots x lines_per_page
};

/// Last-entry register (paper Fig. 3): remembers the uWT slots used by the
/// most recent way lookups so a conventional hit that followed a "way
/// unknown" answer can repair the uWT without a uTLB lookup. A multi-cycle
/// gap between prediction and access is modelled by a small FIFO.
class LastEntryRegister {
 public:
  explicit LastEntryRegister(std::uint32_t depth = 1) : depth_(depth) {}

  /// Note that `slot` (mapping `vpage`) produced this cycle's way info.
  void push(std::uint32_t slot, PageId vpage);

  /// Find the remembered slot for `vpage`, if still tracked.
  [[nodiscard]] std::optional<std::uint32_t> match(PageId vpage) const;

  /// Checkpoint/restore of all mutable state; restore requires an
  /// identically-configured instance (geometry mismatches abort).
  void saveState(ckpt::StateWriter& w) const;
  void loadState(ckpt::StateReader& r);

 private:
  struct Item {
    std::uint32_t slot;
    PageId vpage;
  };
  std::uint32_t depth_;  // lint:no-state(config; bounds-checked on load)
  std::vector<Item> fifo_;  ///< oldest first
};

}  // namespace malec::waydet
