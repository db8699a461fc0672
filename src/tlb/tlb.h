// Translation lookaside buffer with reverse (physical) lookup.
//
// MALEC couples a Way Table entry to every TLB entry, so this TLB exposes
// slot indices, reports the entry an insert displaced, and —
// because the L1 is PIPT and line fills/evictions carry physical tags —
// additionally supports lookups by *physical* page ID (paper Sec. V: "the
// uTLB and TLB need to be modified to allow lookups based on physical, in
// addition to virtual, PageIDs"). Energy accounting therefore treats each
// TLB as two fully-associative tag arrays over one payload array (VI-A).
//
// The paper's configuration: 64-entry main TLB with random replacement,
// 16-entry uTLB with second-chance replacement (chosen to keep hot pages —
// and hence their uWT entries — resident, minimising full-entry uWT->WT
// transfers).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "mem/replacement.h"

namespace malec::ckpt {
class StateReader;
class StateWriter;
}  // namespace malec::ckpt

namespace malec::tlb {

class Tlb {
 public:
  struct Params {
    std::uint32_t entries = 64;
    mem::ReplacementKind replacement = mem::ReplacementKind::kRandom;
    std::uint64_t seed = 13;
  };

  struct Entry {
    bool valid = false;
    PageId vpage = 0;
    PageId ppage = 0;
  };

  explicit Tlb(const Params& p);

  /// Forward lookup by virtual page; returns the slot index on a hit and
  /// updates replacement state.
  std::optional<std::uint32_t> lookupV(PageId vpage);

  /// Reverse lookup by physical page; does NOT touch replacement state
  /// (fills/evictions are not locality events). Returns the first match.
  [[nodiscard]] std::optional<std::uint32_t> lookupP(PageId ppage) const;

  /// Probe without updating replacement state (tests, peek paths).
  [[nodiscard]] std::optional<std::uint32_t> probeV(PageId vpage) const;

  /// Replay the bookkeeping of a lookupV hit on an already-known slot
  /// (memoized translation fast path): the identical replacement touch,
  /// without the associative scan. Caller guarantees the slot still maps
  /// the page it memoized.
  void repeatHit(std::uint32_t slot) { repl_->touch(0, slot); }

  struct Insertion {
    std::uint32_t slot = 0;  ///< the slot now holding the translation
    /// The valid entry the insert recycled `slot` from (valid == false
    /// when it displaced none).
    Entry displaced{};
  };

  /// Insert a translation; evicts if full.
  Insertion insert(PageId vpage, PageId ppage);

  /// Invalidate a slot (tests / shootdowns).
  void invalidate(std::uint32_t slot);

  [[nodiscard]] const Entry& entry(std::uint32_t slot) const;
  [[nodiscard]] std::uint32_t entries() const {
    return static_cast<std::uint32_t>(slots_.size());
  }

  /// Checkpoint/restore of all mutable state; restore requires an
  /// identically-configured instance (geometry mismatches abort).
  void saveState(ckpt::StateWriter& w) const;
  void loadState(ckpt::StateReader& r);

 private:
  std::vector<Entry> slots_;
  std::unique_ptr<mem::ReplacementPolicy> repl_;
};

}  // namespace malec::tlb
