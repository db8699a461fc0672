// Glue between L1, L2 and DRAM with miss-status handling.
//
// The interface models (MALEC / baselines) probe the L1 themselves — they
// need the hit way and access mode for energy accounting. On a miss they
// call missAccess(), which walks L2 -> DRAM, performs the L1 (and L2) fills,
// fires fill/eviction callbacks (used to maintain Way Table validity bits,
// Sec. V) and returns the cycle at which data is available. Outstanding
// misses to the same line are merged MSHR-style. The caller decides which
// L1 ways a line may be allocated into; this layer knows nothing of Way
// Tables.
#pragma once

#include <cstdint>
#include <functional>
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

  /// Fired when a line is filled into / evicted from the L1. Way Table
  /// validity maintenance hooks in here (paper Sec. V).
  using FillCallback = std::function<void(Addr line_base, WayIdx way)>;
  using EvictCallback = std::function<void(Addr line_base)>;

  MemoryHierarchy(Cache& l1, Cache& l2, const Params& p);

  void setFillCallback(FillCallback cb) { on_fill_ = std::move(cb); }
  void setEvictCallback(EvictCallback cb) { on_evict_ = std::move(cb); }

  struct MissOutcome {
    bool l2_hit = false;
    Cycle ready_cycle = 0;   ///< when the load's data is available
    bool merged_mshr = false;///< piggybacked on an outstanding miss
    WayIdx l1_way = kWayUnknown;  ///< way the line was filled into
  };

  /// Handle an established L1 miss for `paddr` at time `now`; performs the
  /// fills eagerly (tag state) and returns data-ready timing. The L1 fill
  /// allocates into one of `l1_ways` (bit i = way i). `is_store` marks the
  /// filled line dirty (write-allocate).
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
    WayIdx way;
  };

  /// Drop the fills complete by `now` (one in-place compaction pass) and
  /// return the index of the surviving fill of `line_base` — an index
  /// past the end when there is none.
  std::size_t dropExpiredAndFind(Cycle now, Addr line_base);

  /// Fill `paddr`'s line into the L1 within `l1_ways`, write a dirty victim
  /// back to the L2, fire the evict and fill hooks and, for a store, dirty
  /// the line. Returns the way the line landed in.
  WayIdx installL1(Addr paddr, std::uint64_t l1_ways, bool is_store);

  Cache& l1_;  // lint:no-state(wiring ref; checkpoints itself)
  Cache& l2_;  // lint:no-state(wiring ref; checkpoints itself)
  Params p_;     // lint:no-state(config)
  FillCallback on_fill_;   // lint:no-state(wiring callback, rebuilt at construction)
  EvictCallback on_evict_;  // lint:no-state(wiring callback, rebuilt at construction)
  /// Outstanding line fills, one per line, in no particular order. A flat
  /// table with a linear find: it only holds the misses of the last
  /// L2 + DRAM latency, a few dozen lines.
  std::vector<PendingFill> pending_;
};

}  // namespace malec::mem
