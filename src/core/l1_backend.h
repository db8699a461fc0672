// The L1 data side every memory interface schedules onto (paper Table I):
// the uTLB/TLB translation engine with its Way Tables, the L1 and L2 tag
// stores, the miss path under them (Table II's L2 and DRAM latencies, with
// misses to a line whose fill is in flight merged onto that fill) and the
// upkeep its fills and evictions need, the optional WDU, the SB -> MB store
// drain with the Merge Buffer eviction waiting for its L1 write (the MBE),
// SB/MB forwarding, the L1 load and MBE-write access, the completion queue
// and the InterfaceStats counters. An access is reduced (tag arrays bypassed,
// one data way) when way determination knows the way and conventional
// otherwise. MALEC and the baselines each own one and keep only their
// scheduler; baselines never determine ways, whatever their waydet says.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/event_queue.h"
#include "core/interface_config.h"
#include "core/mem_interface.h"
#include "core/translation_engine.h"
#include "energy/energy_account.h"
#include "lsq/merge_buffer.h"
#include "lsq/store_buffer.h"
#include "mem/cache.h"
#include "waydet/wdu.h"

namespace malec::core {

class L1Backend {
 public:
  L1Backend(const InterfaceConfig& cfg, const SystemConfig& sys,
            energy::EnergyAccount& ea);

  // --- stores -----------------------------------------------------------------
  [[nodiscard]] bool canAcceptStore() const { return !sb_.full(); }
  /// Buffer a store whose address is known; false when the SB is full.
  bool submitStore(const MemOp& op);
  void commitStore(SeqNum seq) { sb_.markCommitted(seq); }

  /// Per-cycle upkeep before the scheduler's accesses: the drain of one
  /// committed store into the Merge Buffer. Returns true when it changed
  /// state.
  bool tick();

  /// A Merge Buffer eviction is waiting for its L1 write.
  [[nodiscard]] bool hasPendingMbe() const { return pending_mbe_.has_value(); }
  /// Hand the waiting eviction to the scheduler: returns its line base.
  Addr takePendingMbe();
  [[nodiscard]] bool mergeBufferFull() const { return mb_.full(); }

  // --- accesses ---------------------------------------------------------------
  TranslationEngine::Result translate(PageId vpage) {
    return engine_.translate(vpage);
  }
  /// Does the SB or MB hold the load's bytes? Counts the forward.
  bool forwards(Addr vaddr, std::uint8_t size);
  /// L1 read for a load translated by `tr`; returns the data-ready cycle.
  Cycle load(Addr vaddr, const TranslationEngine::Result& tr, Cycle now);
  /// L1 write of the MBE at `vaddr` (write-allocate on a miss).
  void write(Addr vaddr, const TranslationEngine::Result& tr, Cycle now);

  // --- completions ------------------------------------------------------------
  void complete(SeqNum seq, Cycle ready) { completions_.push(ready, seq); }
  /// Append the loads whose data is ready at `now`; true if any were.
  bool drainCompletions(Cycle now, std::vector<SeqNum>& out);
  [[nodiscard]] Cycle nextCompletion() const {
    return completions_.nextCycle();
  }
  /// No load completion, buffered store or waiting MBE left.
  [[nodiscard]] bool quiesced() const {
    return completions_.empty() && sb_.size() == 0 && !pending_mbe_;
  }

  [[nodiscard]] InterfaceStats& stats() { return stats_; }
  [[nodiscard]] const InterfaceStats& stats() const { return stats_; }
  [[nodiscard]] const lsq::StoreBuffer& storeBuffer() const { return sb_; }
  [[nodiscard]] const lsq::MergeBuffer& mergeBuffer() const { return mb_; }

  void saveState(ckpt::StateWriter& w) const;
  void loadState(ckpt::StateReader& r);

 private:
  /// The one L1 hit path under load() and write(): a reduced access (one
  /// data way, tags bypassed; paper Sec. V) when way determination knows
  /// the way, a conventional one otherwise. Returns the hit way, or
  /// kWayUnknown on a miss, which the caller sends down the hierarchy.
  WayIdx access(Addr vaddr, Addr paddr, std::uint32_t uwt_slot, bool write);
  /// Way info for an access about to touch the L1.
  WayIdx lookupWay(std::uint32_t uwt_slot, Addr vaddr, Addr paddr);
  /// Record way knowledge gained by a conventional hit.
  void learnWay(Addr vaddr, Addr paddr, WayIdx way);
  /// The L1 ways a missing line may be allocated into: all but its
  /// WT-excluded way when Way Tables encode ways (Sec. V), else all.
  [[nodiscard]] std::uint64_t fillWays(Addr paddr) const;
  /// The miss `access()` just established for `paddr`: merge onto the
  /// line's fill in flight, or fetch the line from the L2 (or DRAM behind
  /// it), then install it into `fillWays(paddr)` — a dirty victim is
  /// written back into the L2, a store dirties the line — and apply the
  /// upkeep of the displaced line and then of the installed one: fill and
  /// eviction energy, Way Table validity, WDU entries. Returns the fill's
  /// arrival cycle. The tags change at once; the data arrives at that cycle.
  Cycle miss(Addr paddr, Cycle now, bool is_store);
  /// Drop the fills complete by `now` (one in-place compaction pass) and
  /// return the index of the surviving fill of `line_base` — an index past
  /// the end when there is none.
  std::size_t dropExpiredAndFind(Cycle now, Addr line_base);

  /// Event handles resolved once at construction (hot path = integer ids).
  struct EventIds {
    EventIds(energy::EnergyAccount& ea, bool wdu);
    energy::EnergyAccount::EventId ctrl, tag_read, tag_write, data_read,
        data_write, line_read, line_write, wdu_search = 0, wdu_write = 0;
  };

  InterfaceConfig cfg_;  // lint:no-state(config; restore binds by fingerprint)
  SystemConfig sys_;     // lint:no-state(config; restore binds by fingerprint)
  /// cfg_.waydet for MALEC, kNone for the baselines.
  WayDetKind waydet_;  // lint:no-state(config; derived at construction)
  energy::EnergyAccount& ea_;  // lint:no-state(wiring ref; checkpoints itself)
  EventIds id_;  // lint:no-state(construction-time EventId cache)

  mem::Cache l1_;
  mem::Cache l2_;
  /// An outstanding line fill.
  struct PendingFill {
    Addr line_base;
    Cycle ready;
  };
  /// Outstanding line fills, one per line, in no particular order. A flat
  /// table with a linear find: it only holds the misses of the last L2 +
  /// DRAM latency, a few dozen lines.
  std::vector<PendingFill> pending_;
  TranslationEngine engine_;
  std::unique_ptr<waydet::Wdu> wdu_;
  lsq::StoreBuffer sb_;
  lsq::MergeBuffer mb_;
  /// Line base of the MB eviction waiting for its L1 write.
  std::optional<Addr> pending_mbe_;

  EventQueue completions_;  ///< (data-ready cycle, seq) load completions
  InterfaceStats stats_;
};

}  // namespace malec::core
