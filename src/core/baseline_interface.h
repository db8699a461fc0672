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
// compete with loads for the cache's rd/wt port. This class is the port
// scheduler; the caches, translation, store path and the access itself
// live in the L1Backend it owns.
#pragma once

#include <cstdint>
#include <vector>

#include "core/interface_config.h"
#include "core/l1_backend.h"
#include "core/mem_interface.h"
#include "energy/energy_account.h"

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
  [[nodiscard]] const InterfaceStats& stats() const override {
    return backend_.stats();
  }
  void saveState(ckpt::StateWriter& w) const override;
  void loadState(ckpt::StateReader& r) override;

  [[nodiscard]] const L1Backend& backend() const { return backend_; }

 private:
  void serviceLoads(Cycle now);

  /// Loads serviceable per cycle: Base1ldst's single rd/wt port, or
  /// Base2ld1st's rd/wt + rd.
  [[nodiscard]] std::uint32_t loadPortsPerCycle() const {
    return cfg_.kind == InterfaceKind::kBase1LdSt ? 1 : 2;
  }

  InterfaceConfig cfg_;  // lint:no-state(config; restore binds by fingerprint)
  SystemConfig sys_;     // lint:no-state(config; restore binds by fingerprint)

  L1Backend backend_;
  /// Loads waiting for a cache port (small backlog from MBE-write cycles).
  std::vector<MemOp> pending_loads_;

  /// Set whenever this cycle changes state; reset by beginCycle (see
  /// quietUntil()).
  bool active_ = false;  // lint:no-state(per-cycle flag; beginCycle resets it)
};

}  // namespace malec::core
