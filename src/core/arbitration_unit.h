// Arbitration Unit (paper Sec. IV, Fig. 2).
//
// Takes the cycle's page group (priority-ordered accesses all sharing one
// page) and decides which are serviced: one access per single-ported cache
// bank, same-line loads merged onto one data read (only the loads
// consecutive to the winning entry within a small window are examined —
// the paper uses 3, costing < 0.5 % performance), and at most
// `result_buses` loads delivered per cycle. Because the whole group shares
// a page ID, the merge comparators are only pageOffset-wide minus the line
// offset (narrow, fast and cheap). The MBE (a cache write) is serviced when
// its bank's port is not claimed by a load.
//
// With sub-blocked data arrays MALEC reads two adjacent 128-bit sub-blocks
// per access, so loads merge when they fall in the same sub-block *pair*
// (doubling merge probability relative to single-sub-block reads).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/address.h"
#include "common/check.h"
#include "common/types.h"
#include "core/input_buffer.h"

namespace malec::core {

struct ArbCandidate {
  std::size_t ib_index = 0;  ///< caller's reference (input-buffer index)
  Addr vaddr = 0;
  std::uint8_t size = 0;
  bool is_mbe = false;
};

struct ArbOutcome {
  enum class Action : std::uint8_t {
    kWinner,  ///< performs the L1 access for its line
    kMerged,  ///< shares a winner's data read
    kHeld,    ///< stays in the Input Buffer for a later cycle
  };
  /// Per input candidate, aligned with the call's `candidates`: arbitrate()
  /// writes entries [0, candidates.size()), and a group holds at most the
  /// Input Buffer's entries.
  std::array<Action, kInputBufferCapacity> action{};
  /// For kMerged candidates: index (into `candidates`) of their winner.
  std::array<std::uint8_t, kInputBufferCapacity> winner_of{};
  std::uint32_t bank_conflicts = 0;
  std::uint32_t bus_rejects = 0;
};

class ArbitrationUnit {
 public:
  struct Params {
    AddressLayout layout;
    std::uint32_t result_buses;
    /// 0 disables merging.
    std::uint32_t merge_window;
    bool subblocked_pair_read;
  };

  explicit ArbitrationUnit(const Params& p) : p_(p) {
    // arbitrate() tracks port claims in a 32-bit bank mask and a fixed
    // winner array; enforce the capacity once here, off the hot path.
    MALEC_CHECK_MSG(p.layout.l1Banks() <= 32,
                    "ArbitrationUnit supports at most 32 banks");
  }

  /// Arbitrate one page group into `out`, which the per-cycle hot path
  /// reuses across groups. `candidates` must be in priority order (loads
  /// oldest-first, MBE last — InputBuffer::group() order).
  void arbitrate(const std::vector<ArbCandidate>& candidates,
                 ArbOutcome& out) const;

 private:
  /// Merge granularity key: sub-block pair (default) or single sub-block.
  [[nodiscard]] std::uint64_t mergeKey(Addr vaddr) const;

  Params p_;
};

}  // namespace malec::core
