// Store Buffer: speculative stores between address computation and commit
// (24 entries, paper Table II).
//
// Loads must search the SB for younger-store forwarding. MALEC splits that
// lookup into one shared page-ID comparison plus narrow per-port offset
// comparators (paper Sec. IV); the baselines compare full addresses. The
// split is not modelled: an access never crosses a line, so both layouts
// forward exactly the same loads, and the SB's energy is outside the
// paper's totals.
//
// Layout: struct-of-arrays in buffer (allocation) order plus a committed
// bitmask, so the per-cycle forwarding scan streams flat arrays and
// popCommitted() finds the oldest committed store with a
// count-trailing-zeros instead of a scan.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace malec::ckpt {
class StateReader;
class StateWriter;
}  // namespace malec::ckpt

namespace malec::lsq {

class StoreBuffer {
 public:
  struct Entry {
    SeqNum seq = 0;
    Addr vaddr = 0;
    std::uint8_t size = 0;
    bool committed = false;
  };

  explicit StoreBuffer(std::uint32_t capacity) : capacity_(capacity) {
    MALEC_CHECK_MSG(capacity <= 64, "StoreBuffer capacity exceeds bitmask");
  }

  [[nodiscard]] bool full() const { return seq_.size() >= capacity_; }
  [[nodiscard]] std::size_t size() const { return seq_.size(); }

  /// Insert a store that finished address computation. Caller checks full().
  void insert(SeqNum seq, Addr vaddr, std::uint8_t size);

  /// ROB commit reached this store; it becomes eligible to drain.
  void markCommitted(SeqNum seq);

  /// Pop the oldest committed store (drains into the Merge Buffer).
  [[nodiscard]] std::optional<Entry> popCommitted();

  /// Forwarding check: does some store fully cover [vaddr, vaddr+size)?
  [[nodiscard]] bool coversLoad(Addr vaddr, std::uint8_t size) const;

  /// Checkpoint/restore of all mutable state; restore requires an
  /// identically-configured instance (geometry mismatches abort).
  void saveState(ckpt::StateWriter& w) const;
  void loadState(ckpt::StateReader& r);

 private:
  std::uint32_t capacity_;  // lint:no-state(config; bounds-checked on load)

  // Parallel arrays ordered oldest -> youngest (buffer order).
  std::vector<SeqNum> seq_;
  std::vector<Addr> vaddr_;
  std::vector<std::uint8_t> size8_;
  /// Bit i set = entry i committed. Commits can arrive out of buffer order
  /// (test_store_buffer pins this), so this is a mask, not a prefix
  /// counter; the lowest set bit is always the oldest committed store in
  /// buffer order — exactly what popCommitted must drain first.
  std::uint64_t committed_mask_ = 0;
};

}  // namespace malec::lsq
