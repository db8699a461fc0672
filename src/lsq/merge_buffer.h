// Merge Buffer: coalesces committed stores to the same cache line before
// they are written to the L1 (4 entries, paper Table II). Evicted entries
// (MBEs) are handed to the Input Buffer / cache ports for the actual write.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/address.h"
#include "common/types.h"

namespace malec::ckpt {
class StateReader;
class StateWriter;
}  // namespace malec::ckpt

namespace malec::lsq {

class MergeBuffer {
 public:
  /// An evicted entry (MBE): the line it writes and the bytes written.
  struct Entry {
    Addr line_base = 0;         ///< virtual line base the entry covers
    std::uint64_t byte_mask = 0;///< bit i = byte i of the line written
  };

  MergeBuffer(std::uint32_t capacity, AddressLayout layout)
      : capacity_(capacity), layout_(layout) {}

  [[nodiscard]] bool full() const { return line_base_.size() >= capacity_; }
  [[nodiscard]] std::size_t size() const { return line_base_.size(); }

  /// Try to merge a committed store into an existing entry.
  bool absorb(Addr vaddr, std::uint8_t size);

  /// Allocate a new entry for the store's line. Caller checks full().
  void allocate(Addr vaddr, std::uint8_t size);

  /// Evict the least-recently-merged entry (to be written to L1).
  [[nodiscard]] std::optional<Entry> evictLru();

  /// Forwarding: does a Merge Buffer entry hold every byte of the load?
  [[nodiscard]] bool coversLoad(Addr vaddr, std::uint8_t size) const;

  /// Checkpoint/restore of all mutable state; restore requires an
  /// identically-configured instance (geometry mismatches abort).
  void saveState(ckpt::StateWriter& w) const;
  void loadState(ckpt::StateReader& r);

 private:
  [[nodiscard]] std::uint64_t maskFor(Addr vaddr, std::uint8_t size) const;

  std::uint32_t capacity_;  // lint:no-state(config; bounds-checked on load)
  AddressLayout layout_;    // lint:no-state(config)

  // Parallel arrays in allocation order (struct-of-arrays: the per-cycle
  // forwarding scan streams line bases instead of striding over structs).
  std::vector<Addr> line_base_;  ///< virtual line base each entry covers
  std::vector<std::uint64_t> byte_mask_;  ///< bit i = byte i written
  std::vector<std::uint64_t> lru_;  ///< unique last-merge ticks

  std::uint64_t tick_ = 0;
};

}  // namespace malec::lsq
