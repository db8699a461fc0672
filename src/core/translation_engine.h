// Shared uTLB/TLB machinery with optional Way Tables.
//
// Both the baselines and MALEC translate through a 16-entry uTLB backed by
// a 64-entry TLB (Table II). With way tables enabled (MALEC), each uTLB/TLB
// slot carries a Way Table entry, and this engine implements the full
// synchronisation protocol of Sec. V (see way_table.h for the rules) plus
// the validity maintenance on cache line fills/evictions via reverse
// physical lookups. It also counts all translation-side energy events.
#pragma once

#include <cstdint>
#include <optional>

#include "common/address.h"
#include "common/types.h"
#include "energy/energy_account.h"
#include "tlb/page_table.h"
#include "tlb/tlb.h"
#include "waydet/way_table.h"

namespace malec::ckpt {
class StateReader;
class StateWriter;
}  // namespace malec::ckpt

namespace malec::core {

class TranslationEngine {
 public:
  struct Params {
    AddressLayout layout{};
    std::uint32_t utlb_entries = 16;
    std::uint32_t tlb_entries = 64;
    bool way_tables = false;
    bool last_entry_feedback = true;
    std::uint32_t last_entry_depth = 4;
    Cycle walk_latency = 30;
    std::uint64_t seed = 17;
  };

  struct Result {
    PageId ppage = 0;
    /// Cycles beyond the uTLB-hit path: 0 (uTLB hit), 1 (TLB hit) or the
    /// page-walk latency (TLB miss).
    Cycle extra_latency = 0;
    /// uTLB/uWT slot now holding the page (always valid after translate()).
    std::uint32_t uwt_slot = 0;
    bool utlb_hit = false;
    bool tlb_hit = false;  ///< meaningful when !utlb_hit
  };

  TranslationEngine(const Params& p, energy::EnergyAccount& ea);

  /// Translate a virtual page; installs it into uTLB (and TLB) as needed
  /// and counts the corresponding energy events. With way tables enabled a
  /// uTLB hit also reads the uWT entry (one read services the whole page
  /// group, Sec. V).
  Result translate(PageId vpage);

  /// Way for a specific address given the current cycle's uWT slot.
  /// Returns kWayUnknown without way tables.
  WayIdx wayFor(std::uint32_t uwt_slot, Addr vaddr);

  /// A conventional access hit `way` after this engine answered "unknown":
  /// repair the uWT through the last-entry register (no uTLB lookup).
  void feedbackConventionalHit(PageId vpage, Addr vaddr, WayIdx way);

  /// Cache line filled into `way` — set validity (reverse lookup path).
  void onLineFill(Addr paddr_line_base, WayIdx way);
  /// Cache line evicted — clear validity (reverse lookup path).
  void onLineEvict(Addr paddr_line_base);

  /// Checkpoint/restore of the full translation-side state: page table,
  /// uTLB/TLB (including replacement bookkeeping), uWT/WT and the
  /// last-entry register.
  void saveState(ckpt::StateWriter& w) const;
  void loadState(ckpt::StateReader& r);

 private:
  void installIntoUtlb(PageId vpage, PageId ppage, std::uint32_t tlb_slot,
                       bool tlb_entry_fresh);

  /// Event handles resolved once at construction (hot path = integer ids).
  struct EventIds {
    explicit EventIds(energy::EnergyAccount& ea);
    energy::EnergyAccount::EventId utlb_search;
    energy::EnergyAccount::EventId tlb_search;
    energy::EnergyAccount::EventId utlb_psearch;
    energy::EnergyAccount::EventId tlb_psearch;
    energy::EnergyAccount::EventId uwt_read;
    energy::EnergyAccount::EventId uwt_write;
    energy::EnergyAccount::EventId wt_read;
    energy::EnergyAccount::EventId wt_write;
  };

  Params p_;  // lint:no-state(config; restore binds by fingerprint)
  energy::EnergyAccount& ea_;  // lint:no-state(wiring ref; checkpoints itself)
  EventIds id_;  // lint:no-state(construction-time EventId cache)
  tlb::PageTable pt_;
  tlb::Tlb utlb_;
  tlb::Tlb tlb_;
  waydet::WayTable uwt_;
  waydet::WayTable wt_;
  waydet::LastEntryRegister last_entry_;

  // Last-translation memo: translate() replays the uTLB-hit bookkeeping for
  // a repeated vpage without the associative scan (hot loops translate the
  // same page many cycles in a row). Invalidated wherever a uTLB slot can
  // change underneath it and dropped on restore — never checkpointed.
  bool memo_valid_ = false;  // lint:no-state(derived cache; dropped in loadState)
  PageId memo_vpage_ = 0;  // lint:no-state(derived cache)
  std::uint32_t memo_slot_ = 0;  // lint:no-state(derived cache)
};

}  // namespace malec::core
