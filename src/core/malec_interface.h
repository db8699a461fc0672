// The MALEC L1 data-memory interface: Page-Based Memory Access Grouping
// (Sec. IV) plus optional Page-Based Way Determination (Sec. V) or a
// WDU-based variant (Sec. VI-C).
//
// Per cycle: at most ONE page is translated (single-ported uTLB/TLB); all
// Input Buffer entries on that page form a group; the Arbitration Unit
// spreads the group over the four single-ported cache banks, merges
// same-line loads onto shared data reads and respects the result-bus limit;
// way information from the uWT entry (delivered with the translation)
// selects reduced (tag-bypassing) or conventional cache accesses.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/arbitration_unit.h"
#include "core/event_queue.h"
#include "core/input_buffer.h"
#include "core/interface_config.h"
#include "core/l1_event_ids.h"
#include "core/mem_interface.h"
#include "core/translation_engine.h"
#include "energy/energy_account.h"
#include "lsq/merge_buffer.h"
#include "lsq/store_buffer.h"
#include "mem/l1_cache.h"
#include "mem/l2_cache.h"
#include "mem/memory_hierarchy.h"
#include "waydet/wdu.h"

namespace malec::core {

class MalecInterface final : public MemInterface {
 public:
  MalecInterface(const InterfaceConfig& cfg, const SystemConfig& sys,
                 energy::EnergyAccount& ea);

  void beginCycle(Cycle now) override;
  [[nodiscard]] bool canAcceptLoad() const override;
  [[nodiscard]] bool canAcceptStore() const override;
  bool submit(const MemOp& op) override;
  void notifyStoreCommit(SeqNum seq) override;
  void endCycle(Cycle now) override;
  void drainCompletions(Cycle now, std::vector<SeqNum>& out) override;
  [[nodiscard]] bool quiesced() const override;
  [[nodiscard]] Cycle quietUntil() const override;
  void replayQuietCycles(Cycle n) override;
  [[nodiscard]] const InterfaceStats& stats() const override { return stats_; }
  void saveState(ckpt::StateWriter& w) const override;
  void loadState(ckpt::StateReader& r) override;

  // --- inspection (tests, reports) -----------------------------------------
  [[nodiscard]] const TranslationEngine& engine() const { return engine_; }
  [[nodiscard]] const mem::L1Cache& l1() const { return l1_; }
  [[nodiscard]] const mem::MemoryHierarchy& hierarchy() const { return hier_; }
  [[nodiscard]] const lsq::StoreBuffer& storeBuffer() const { return sb_; }
  [[nodiscard]] const lsq::MergeBuffer& mergeBuffer() const { return mb_; }
  [[nodiscard]] const InputBuffer& inputBuffer() const { return ib_; }

 private:
  struct GroupMember {
    std::size_t ib_index;
    MemOp op;
    bool is_mbe;
  };

  void drainStoreBuffer(Cycle now);
  void serviceGroup(Cycle now);
  /// Look up way info for an access about to touch the L1.
  WayIdx lookupWay(std::uint32_t uwt_slot, Addr vaddr, Addr paddr);
  /// Record way knowledge gained by a conventional hit.
  void learnWay(PageId vpage, Addr vaddr, Addr paddr, WayIdx way);
  /// Perform the L1 read for a winner load; returns data-ready cycle.
  Cycle accessL1Load(const MemOp& op, PageId vpage, Addr paddr,
                     std::uint32_t uwt_slot, Cycle now);
  /// Perform an MBE write.
  void accessL1Write(const MemOp& op, PageId vpage, Addr paddr,
                     std::uint32_t uwt_slot, Cycle now);
  void complete(SeqNum seq, Cycle ready);
  /// The Input Buffer stall test endCycle(now) counts in ib_stall_cycles.
  [[nodiscard]] bool ibStalled(Cycle now) const;

  /// Event handles resolved once at construction (hot path = integer ids):
  /// the shared L1 set plus MALEC's WDU events.
  struct EventIds {
    explicit EventIds(energy::EnergyAccount& ea)
        : l1(ea),
          wdu_search(ea.resolveEvent("wdu.search")),
          wdu_write(ea.resolveEvent("wdu.write")) {}
    L1EventIds l1;
    energy::EnergyAccount::EventId wdu_search;
    energy::EnergyAccount::EventId wdu_write;
  };

  InterfaceConfig cfg_;  // lint:no-state(config; restore binds by fingerprint)
  SystemConfig sys_;     // lint:no-state(config; restore binds by fingerprint)
  energy::EnergyAccount& ea_;  // lint:no-state(wiring ref; checkpoints itself)
  EventIds id_;  // lint:no-state(construction-time EventId cache)

  mem::L1Cache l1_;
  mem::L2Cache l2_;
  mem::MemoryHierarchy hier_;
  TranslationEngine engine_;
  std::unique_ptr<waydet::Wdu> wdu_;
  lsq::StoreBuffer sb_;
  lsq::MergeBuffer mb_;
  InputBuffer ib_;
  ArbitrationUnit arb_;  // lint:no-state(combinational; holds no cycle state)

  /// MB eviction waiting for the Input Buffer's MBE slot.
  std::optional<lsq::MergeBuffer::Entry> pending_mbe_;

  // Per-cycle scratch buffers reused across serviceGroup() calls so the
  // steady state allocates nothing (capacity is retained between cycles).
  std::vector<std::size_t> group_scratch_;   // lint:no-state(per-cycle scratch)
  std::vector<ArbCandidate> cand_scratch_;   // lint:no-state(per-cycle scratch)
  ArbOutcome arb_scratch_;                   // lint:no-state(per-cycle scratch)
  std::vector<std::size_t> serviced_scratch_;  // lint:no-state(per-cycle scratch)
  std::vector<std::size_t> party_scratch_;     // lint:no-state(per-cycle scratch)

  EventQueue completions_;  ///< (data-ready cycle, seq) load completions

  InterfaceStats stats_;
  Cycle now_ = 0;
  /// Set whenever this cycle changes state beyond the stall counter; reset
  /// by beginCycle (see quietUntil()).
  bool active_ = false;  // lint:no-state(per-cycle flag; beginCycle resets it)

  // Run-time bypass monitor (adaptive_bypass extension, Sec. VI-D).
  std::uint64_t window_accesses_ = 0;
  std::uint64_t window_misses_ = 0;
  std::uint64_t window_lookups_ = 0;
  std::uint64_t window_known_ = 0;
  std::uint64_t bypass_windows_ = 0;
  std::uint32_t high_miss_windows_ = 0;  ///< consecutive, for hysteresis

 public:
  /// Windows spent with way determination suspended (for reports/tests).
  [[nodiscard]] std::uint64_t bypassWindows() const { return bypass_windows_; }
};

}  // namespace malec::core
