// The MALEC L1 data-memory interface: Page-Based Memory Access Grouping
// (Sec. IV) plus optional Page-Based Way Determination (Sec. V) or a
// WDU-based variant (Sec. VI-C).
//
// Per cycle: at most ONE page is translated (single-ported uTLB/TLB); all
// Input Buffer entries on that page form a group; the Arbitration Unit
// spreads the group over the four single-ported cache banks, merges
// same-line loads onto shared data reads and respects the result-bus limit;
// way information from the uWT entry (delivered with the translation)
// selects reduced (tag-bypassing) or conventional cache accesses. This
// class is the scheduler; the caches, translation, store path and the
// access itself live in the L1Backend it owns.
#pragma once

#include <cstdint>
#include <vector>

#include "core/arbitration_unit.h"
#include "core/input_buffer.h"
#include "core/interface_config.h"
#include "core/l1_backend.h"
#include "core/mem_interface.h"
#include "energy/energy_account.h"

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
  [[nodiscard]] const InterfaceStats& stats() const override {
    return backend_.stats();
  }
  void saveState(ckpt::StateWriter& w) const override;
  void loadState(ckpt::StateReader& r) override;

  [[nodiscard]] const L1Backend& backend() const { return backend_; }

 private:
  void serviceGroup(Cycle now);
  /// The Input Buffer stall test endCycle(now) counts in ib_stall_cycles.
  [[nodiscard]] bool ibStalled(Cycle now) const;

  InterfaceConfig cfg_;  // lint:no-state(config; restore binds by fingerprint)
  SystemConfig sys_;     // lint:no-state(config; restore binds by fingerprint)

  L1Backend backend_;
  InputBuffer ib_;
  ArbitrationUnit arb_;  // lint:no-state(combinational; holds no cycle state)

  // Per-cycle scratch buffers reused across serviceGroup() calls so the
  // steady state allocates nothing (capacity is retained between cycles).
  std::vector<std::size_t> group_scratch_;   // lint:no-state(per-cycle scratch)
  std::vector<ArbCandidate> cand_scratch_;   // lint:no-state(per-cycle scratch)
  ArbOutcome arb_scratch_;                   // lint:no-state(per-cycle scratch)

  Cycle now_ = 0;
  /// Set whenever this cycle changes state beyond the stall counter; reset
  /// by beginCycle (see quietUntil()).
  bool active_ = false;  // lint:no-state(per-cycle flag; beginCycle resets it)
};

}  // namespace malec::core
