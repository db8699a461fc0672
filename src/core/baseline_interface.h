// Baseline L1 data-memory interfaces (paper Table I):
//
//   * Base1ldst  — 1 load OR store address per cycle, single-ported uTLB/
//                  TLB and cache (1 rd/wt port): the energy-oriented design.
//   * Base2ld1st — 2 loads + 1 store per cycle through physical
//                  multi-porting (uTLB/TLB: 1 rd/wt + 2 rd; cache:
//                  1 rd/wt + 1 rd) on top of banking: the performance-
//                  oriented design.
//
// Every load translates individually (multi-ported TLBs) and performs a
// conventional cache access (no way determination). Stores drain through
// the same Store Buffer / Merge Buffer path as MALEC; evicted MB entries
// compete with loads for the cache's rd/wt port.
#pragma once

#include <cstdint>
#include <vector>

#include "core/event_queue.h"
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

namespace malec::core {

class BaselineInterface final : public MemInterface {
 public:
  BaselineInterface(const InterfaceConfig& cfg, const SystemConfig& sys,
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
  void replayQuietCycles(Cycle n) override { now_ += n; }
  [[nodiscard]] const InterfaceStats& stats() const override { return stats_; }
  void saveState(ckpt::StateWriter& w) const override;
  void loadState(ckpt::StateReader& r) override;

  [[nodiscard]] const TranslationEngine& engine() const { return engine_; }
  [[nodiscard]] const mem::L1Cache& l1() const { return l1_; }
  [[nodiscard]] const mem::MemoryHierarchy& hierarchy() const { return hier_; }
  [[nodiscard]] const lsq::StoreBuffer& storeBuffer() const { return sb_; }
  [[nodiscard]] const lsq::MergeBuffer& mergeBuffer() const { return mb_; }

 private:
  void drainStoreBuffer();
  void serviceLoads(Cycle now);
  Cycle accessL1Load(const MemOp& op, Addr paddr, Cycle now);
  void accessL1Write(Addr vaddr, Cycle now);

  /// Loads serviceable this cycle given the port organisation.
  [[nodiscard]] std::uint32_t loadPortsPerCycle() const;

  InterfaceConfig cfg_;  // lint:no-state(config; restore binds by fingerprint)
  SystemConfig sys_;     // lint:no-state(config; restore binds by fingerprint)
  energy::EnergyAccount& ea_;  // lint:no-state(wiring ref; checkpoints itself)
  /// Event handles resolved once at construction (hot path = integer ids).
  L1EventIds id_;  // lint:no-state(construction-time EventId cache)

  mem::L1Cache l1_;
  mem::L2Cache l2_;
  mem::MemoryHierarchy hier_;
  TranslationEngine engine_;
  lsq::StoreBuffer sb_;
  lsq::MergeBuffer mb_;

  /// Loads waiting for a cache port (small backlog from MBE-write cycles).
  std::vector<MemOp> pending_loads_;
  std::optional<lsq::MergeBuffer::Entry> pending_mbe_;

  EventQueue completions_;  ///< (data-ready cycle, seq) load completions

  InterfaceStats stats_;
  Cycle now_ = 0;
  /// Set whenever this cycle changes state; reset by beginCycle (see
  /// quietUntil()).
  bool active_ = false;  // lint:no-state(per-cycle flag; beginCycle resets it)
};

}  // namespace malec::core
