// Glue between L1, L2 and DRAM with miss-status handling.
//
// The interface models (MALEC / baselines) probe the L1 themselves — they
// need the hit way and access mode for energy accounting. On a miss they
// call missAccess(), which walks L2 -> DRAM, performs the L1 (and L2) fills
// and returns the cycle at which data is available, together with the L1
// install and the line it displaced: the caller applies the fill/eviction
// upkeep (energy, Way Table validity bits — Sec. V — and the WDU).
// Outstanding misses to the same line are merged MSHR-style. The caller
// decides which L1 ways a line may be allocated into; this layer knows
// nothing of Way Tables.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "mem/cache.h"

namespace malec::ckpt {
class StateReader;
class StateWriter;
}  // namespace malec::ckpt

namespace malec::mem {

class MemoryHierarchy {
 public:
  struct Params {
    Cycle l2_latency = 12;    ///< Table II
    Cycle dram_latency = 54;  ///< Table II
    std::uint32_t mshrs = 8;  ///< outstanding distinct line misses
  };

  MemoryHierarchy(Cache& l1, Cache& l2, const Params& p);

  struct MissOutcome {
    bool l2_hit = false;
    Cycle ready_cycle = 0;   ///< when the load's data is available
    bool merged_mshr = false;///< piggybacked on an outstanding miss
    WayIdx l1_way = kWayUnknown;  ///< way the line is in
    /// The miss installed the line into the L1 (false only when it merged
    /// onto an outstanding fill whose line is still resident).
    bool installed = false;
    /// The install displaced a valid L1 line, whose base is evicted_line.
    bool evicted = false;
    Addr evicted_line = 0;
  };

  /// Handle an established L1 miss for `paddr` at time `now`; performs the
  /// fills eagerly (tag state) and returns data-ready timing. The L1 fill
  /// allocates into one of `l1_ways` (bit i = way i). `is_store` marks the
  /// filled line dirty (write-allocate). The caller applies the upkeep of
  /// the displaced line before that of the installed one.
  MissOutcome missAccess(Addr paddr, Cycle now, bool is_store,
                         std::uint64_t l1_ways);

  /// True if a new distinct line miss can be tracked at `now`.
  [[nodiscard]] bool mshrAvailable(Cycle now) const;

  /// Checkpoint/restore of outstanding-miss tracking.
  void saveState(ckpt::StateWriter& w) const;
  void loadState(ckpt::StateReader& r);

 private:
  /// An outstanding line fill.
  struct PendingFill {
    Addr line_base;
    Cycle ready;
  };

  /// Drop the fills complete by `now` (one in-place compaction pass) and
  /// return the index of the surviving fill of `line_base` — an index
  /// past the end when there is none.
  std::size_t dropExpiredAndFind(Cycle now, Addr line_base);

  /// Fill `paddr`'s line into the L1 within `l1_ways`, write a dirty victim
  /// back to the L2 and, for a store, dirty the line. Records the way and
  /// the displaced line in `out`.
  void installL1(Addr paddr, std::uint64_t l1_ways, bool is_store,
                 MissOutcome& out);

  Cache& l1_;  // lint:no-state(wiring ref; checkpoints itself)
  Cache& l2_;  // lint:no-state(wiring ref; checkpoints itself)
  Params p_;     // lint:no-state(config)
  /// Outstanding line fills, one per line, in no particular order. A flat
  /// table with a linear find: it only holds the misses of the last
  /// L2 + DRAM latency, a few dozen lines.
  std::vector<PendingFill> pending_;
};

}  // namespace malec::mem
