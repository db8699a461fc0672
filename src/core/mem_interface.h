// Abstract L1 data-memory interface as seen by the out-of-order core.
//
// Concrete implementations: MalecInterface (Page-Based Access Grouping) and
// BaselineInterface (Base1ldst / Base2ld1st port models). The core submits
// memory operations as their address computations finish and receives load
// completions; stores complete architecturally at commit via
// notifyStoreCommit, after which the interface drains them through the
// Store Buffer and Merge Buffer.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace malec::ckpt {
class StateReader;
class StateWriter;
}  // namespace malec::ckpt

namespace malec::core {

/// A memory operation handed over by an address-computation unit.
struct MemOp {
  SeqNum seq = 0;
  bool is_load = true;
  Addr vaddr = 0;
  std::uint8_t size = 8;
};

/// Shared MemOp checkpoint codec — every holder (input buffer, pending
/// load backlog) serializes through this one field list.
void saveMemOp(ckpt::StateWriter& w, const MemOp& op);
[[nodiscard]] MemOp loadMemOp(ckpt::StateReader& r);

/// Aggregate behavioural counters every interface maintains.
struct InterfaceStats {
  std::uint64_t loads_submitted = 0;
  std::uint64_t stores_submitted = 0;

  std::uint64_t load_l1_accesses = 0;  ///< actual L1 reads (after fwd/merge)
  std::uint64_t load_l1_hits = 0;
  std::uint64_t load_l1_misses = 0;
  std::uint64_t write_l1_accesses = 0;  ///< MBE writes reaching the cache
  std::uint64_t write_l1_misses = 0;

  std::uint64_t reduced_accesses = 0;       ///< tag arrays bypassed
  std::uint64_t conventional_accesses = 0;  ///< full lookup
  std::uint64_t way_lookups = 0;            ///< way-determination queries
  std::uint64_t way_known = 0;              ///< ... answered with a valid way

  std::uint64_t merged_loads = 0;  ///< loads sharing another load's L1 read
  std::uint64_t sb_forwards = 0;
  std::uint64_t mb_forwards = 0;

  std::uint64_t groups = 0;         ///< page groups formed (MALEC)
  std::uint64_t group_entries = 0;  ///< accesses serviced via groups
  std::uint64_t ib_hold_events = 0; ///< entries held for a later cycle
  std::uint64_t ib_stall_cycles = 0;
  std::uint64_t bank_conflicts = 0;
  std::uint64_t bus_rejects = 0;
  std::uint64_t port_conflicts = 0;
  std::uint64_t mbe_writes = 0;

  [[nodiscard]] double wayCoverage() const {
    return way_lookups == 0
               ? 0.0
               : static_cast<double>(way_known) /
                     static_cast<double>(way_lookups);
  }
};

/// Every counter field of InterfaceStats, for code that folds whole stat
/// sets (window deltas and their weighted fold in runOne).
/// A new counter MUST be added here too — a static_assert in
/// mem_interface.cpp pins the listing against sizeof(InterfaceStats).
inline constexpr std::uint64_t InterfaceStats::*kInterfaceCounterFields[] = {
    &InterfaceStats::loads_submitted,
    &InterfaceStats::stores_submitted,
    &InterfaceStats::load_l1_accesses,
    &InterfaceStats::load_l1_hits,
    &InterfaceStats::load_l1_misses,
    &InterfaceStats::write_l1_accesses,
    &InterfaceStats::write_l1_misses,
    &InterfaceStats::reduced_accesses,
    &InterfaceStats::conventional_accesses,
    &InterfaceStats::way_lookups,
    &InterfaceStats::way_known,
    &InterfaceStats::merged_loads,
    &InterfaceStats::sb_forwards,
    &InterfaceStats::mb_forwards,
    &InterfaceStats::groups,
    &InterfaceStats::group_entries,
    &InterfaceStats::ib_hold_events,
    &InterfaceStats::ib_stall_cycles,
    &InterfaceStats::bank_conflicts,
    &InterfaceStats::bus_rejects,
    &InterfaceStats::port_conflicts,
    &InterfaceStats::mbe_writes,
};

/// Counter delta for warmup-aware sampled replay: `after - before`,
/// field by field. The warmup segment's counters are snapshotted when the
/// measurement window opens and subtracted from the final stats, so warmup
/// accesses prime the interface state without entering any reported metric
/// (sampled replay snapshots the energy-event counts at the same boundary).
[[nodiscard]] InterfaceStats statsDelta(const InterfaceStats& after,
                                        const InterfaceStats& before);

class MemInterface {
 public:
  virtual ~MemInterface() = default;

  /// Start-of-cycle housekeeping (reset port budgets, accept MB evictions).
  virtual void beginCycle(Cycle now) = 0;

  /// May the core submit another load/store this cycle? (structural space)
  [[nodiscard]] virtual bool canAcceptLoad() const = 0;
  [[nodiscard]] virtual bool canAcceptStore() const = 0;

  /// Hand over an op whose address computation finished this cycle.
  /// Returns false on a structural hazard (caller retries next cycle).
  virtual bool submit(const MemOp& op) = 0;

  /// ROB committed this store; it may drain towards the cache.
  virtual void notifyStoreCommit(SeqNum seq) = 0;

  /// End-of-cycle: translation, arbitration and L1 access for this cycle.
  virtual void endCycle(Cycle now) = 0;

  /// Collect loads whose data is available at `now`.
  virtual void drainCompletions(Cycle now, std::vector<SeqNum>& out) = 0;

  /// No in-flight work left (used to drain the pipeline at end of run).
  [[nodiscard]] virtual bool quiesced() const = 0;

  /// Wake-driven run loop (docs/ARCHITECTURE.md, "The run-loop hot path").
  /// Asked after endCycle(): if the cycle that just ended changed no
  /// interface state except per-cycle stall counters, return the first
  /// cycle at which a timed event (a load completion, a deferred entry
  /// turning ready) can change state again — every cycle before it would
  /// repeat the one that just ended. Return 0 when the cycle was not quiet.
  /// The default is "never quiet", so a decorator or fake that does not
  /// override this stays exact: the core simply steps every cycle.
  [[nodiscard]] virtual Cycle quietUntil() const { return 0; }

  /// Account `n` skipped cycles, each a replica of the quiet cycle that
  /// just ended: advance the interface clock and add that cycle's stall
  /// counts n times. Called only after quietUntil() reported quiet.
  virtual void replayQuietCycles(Cycle n) { (void)n; }

  [[nodiscard]] virtual const InterfaceStats& stats() const = 0;

  /// Checkpoint/restore of ALL mutable interface state — input buffers,
  /// arbitration scratch carried across cycles, merge/feedback machinery,
  /// busy windows, caches, TLBs, way structures and counters. The
  /// determinism contract (docs/ARCHITECTURE.md): restoring into a
  /// freshly-constructed interface of the same configuration and
  /// continuing is bit-identical to never having stopped. Any state a
  /// subclass forgets to serialize fails the checkpoint test matrix.
  virtual void saveState(ckpt::StateWriter& w) const = 0;
  virtual void loadState(ckpt::StateReader& r) = 0;
};

}  // namespace malec::core
