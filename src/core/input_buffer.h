// Input Buffer: the entry stage of Page-Based Memory Access Grouping
// (paper Sec. IV, Fig. 2).
//
// Holds, in priority order: loads carried over from previous cycles, loads
// finishing address computation this cycle, and at most one evicted Merge
// Buffer entry (lowest priority — its stores already committed). Each cycle
// the highest-priority *ready* entry becomes the head; its virtual page ID
// is sent to the uTLB and simultaneously compared (by a small bank of
// page-wide comparators) against the other valid entries. Matching entries
// form the cycle's page group and proceed to the Arbitration Unit.
//
// If more loads need carrying than the carry capacity allows, the address
// computation units stall (canAcceptLoad() turns false).
//
// Layout: struct-of-arrays, packed by age. The parallel arrays are kept in
// insertion order (order_ strictly increasing), which the selection,
// grouping and stall scans all depend on — see the ORDER CONTRACT comments
// in the .cpp. Page IDs are cached per entry so the per-cycle group scan
// compares integers instead of re-deriving them from addresses.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/address.h"
#include "common/types.h"
#include "core/mem_interface.h"

namespace malec::ckpt {
class StateReader;
class StateWriter;
}  // namespace malec::ckpt

namespace malec::core {

/// Most entries an Input Buffer holds (carry + AGU slots + the MBE slot):
/// remove() takes its victims as a 64-bit mask, and the Arbitration Unit
/// sizes its per-candidate outcome arrays by it.
inline constexpr std::size_t kInputBufferCapacity = 64;

class InputBuffer {
 public:
  /// carry_slots + agu_slots + 1 (the MBE slot) must not exceed
  /// kInputBufferCapacity.
  InputBuffer(std::uint32_t carry_slots, std::uint32_t agu_slots,
              std::uint32_t group_comparators, AddressLayout layout);

  /// Can another load enter this cycle? (carry + AGU slots not exhausted)
  [[nodiscard]] bool hasLoadSpace() const;
  /// Is the single MBE slot free?
  [[nodiscard]] bool hasMbeSpace() const { return mbe_pos_ == kNoMbe; }

  void addLoad(const MemOp& op, Cycle now);
  void addMbe(const MemOp& op, Cycle now);

  /// Highest-priority entry index ready at `now`, or nullopt if idle.
  [[nodiscard]] std::optional<std::size_t> selectHead(Cycle now) const;

  /// Fills `out` (cleared first, keeping its capacity across calls) with
  /// the indices (priority order, head first) of the head's page group:
  /// entries sharing the head's vPageID among the first
  /// `group_comparators` ready candidates (hardware comparator limit).
  void group(std::size_t head, Cycle now, std::vector<std::size_t>& out) const;

  /// Defer an entry (TLB access or page walk in flight).
  void defer(std::size_t index, Cycle until);

  /// Earliest cycle at which some entry is selectable (its not-before
  /// cycle), or kNever when the buffer is empty.
  [[nodiscard]] Cycle nextReadyCycle() const;

  /// Remove the serviced entries — bit i of `doomed` set removes entry i —
  /// in one stable compaction pass.
  void remove(std::uint64_t doomed);

  // --- per-entry accessors (index = position in age order) ---------------
  [[nodiscard]] std::size_t size() const { return ops_.size(); }
  [[nodiscard]] const MemOp& op(std::size_t i) const { return ops_[i]; }
  [[nodiscard]] bool isMbe(std::size_t i) const { return i == mbe_pos_; }
  /// Cached virtual page ID of entry `i` (layout.pageId(op(i).vaddr)).
  [[nodiscard]] PageId pageOf(std::size_t i) const { return page_[i]; }

  [[nodiscard]] std::size_t loadCount() const {
    return ops_.size() - (mbe_pos_ == kNoMbe ? 0 : 1);
  }
  [[nodiscard]] bool empty() const { return ops_.empty(); }
  /// True when loads carried over from earlier cycles exceed the carry
  /// capacity — the address-computation units must stall (paper Sec. IV:
  /// "should the Input Buffer's storage elements be insufficient, one or
  /// more address computation units are stalled").
  [[nodiscard]] bool overCommitted(Cycle now) const;

  /// Checkpoint/restore of all mutable state; restore requires an
  /// identically-configured instance (geometry mismatches abort).
  void saveState(ckpt::StateWriter& w) const;
  void loadState(ckpt::StateReader& r);

 private:
  static constexpr std::size_t kNoMbe = static_cast<std::size_t>(-1);

  std::uint32_t carry_slots_;  // lint:no-state(config; bounds-checked on load)
  std::uint32_t agu_slots_;    // lint:no-state(config; bounds-checked on load)
  std::uint32_t group_comparators_;  // lint:no-state(config)
  AddressLayout layout_;             // lint:no-state(config)

  // Parallel arrays, packed by age (oldest first; see header comment).
  std::vector<MemOp> ops_;
  std::vector<Cycle> not_before_;  ///< entry not selectable before this cycle
  std::vector<Cycle> arrival_;     ///< cycle the entry entered the buffer
  std::vector<std::uint64_t> order_;  ///< global priority: lower = older
  // lint:no-state(derived from ops_; recomputed in loadState)
  std::vector<PageId> page_;
  /// Index of the single MBE entry, kNoMbe when absent.
  std::size_t mbe_pos_ = kNoMbe;  // lint:no-state(derived from the per-entry mbe flags; recomputed in loadState)

  std::uint64_t next_order_ = 0;
};

}  // namespace malec::core
