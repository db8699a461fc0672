#include "core/arbitration_unit.h"

#include <iterator>

#include "common/check.h"

namespace malec::core {

std::uint64_t ArbitrationUnit::mergeKey(Addr vaddr) const {
  const std::uint64_t line = p_.layout.lineAddr(vaddr);
  const std::uint64_t sub = p_.subblocked_pair_read
                                ? p_.layout.subBlockPairOf(vaddr)
                                : p_.layout.subBlockOf(vaddr);
  return line * p_.layout.subBlocksPerLine() + sub;
}

void ArbitrationUnit::arbitrate(const std::vector<ArbCandidate>& candidates,
                                ArbOutcome& out) const {
  MALEC_CHECK_MSG(candidates.size() <= kInputBufferCapacity,
                  "page group larger than the Input Buffer");
  // Every candidate's action is written exactly once below.
  out.bank_conflicts = 0;
  out.bus_rejects = 0;

  // One bit per single-ported bank; the constructor enforces <= 32 banks.
  std::uint32_t bank_used = 0;

  struct Winner {
    std::size_t cand_index;
    std::uint64_t key;
  };
  // A group never has more winners than banks; a fixed-size array keeps the
  // hot path off the heap.
  Winner winners[32];
  std::size_t n_winners = 0;
  std::uint32_t buses_used = 0;

  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const ArbCandidate& c = candidates[i];
    out.action[i] = ArbOutcome::Action::kHeld;
    if (c.is_mbe) continue;  // handled after loads

    if (buses_used >= p_.result_buses) {
      ++out.bus_rejects;
      continue;  // kHeld
    }

    const std::uint64_t key = mergeKey(c.vaddr);
    // Try to merge with an existing winner: only the merge_window loads
    // consecutive to the winner are compared (Sec. IV).
    bool merged = false;
    for (std::size_t wi = 0; wi < n_winners; ++wi) {
      const Winner& w = winners[wi];
      if (i <= w.cand_index || i - w.cand_index > p_.merge_window) continue;
      if (w.key == key) {
        out.action[i] = ArbOutcome::Action::kMerged;
        out.winner_of[i] = static_cast<std::uint8_t>(w.cand_index);
        ++buses_used;
        merged = true;
        break;
      }
    }
    if (merged) continue;

    const BankIdx bank = p_.layout.bankOf(c.vaddr);
    if ((bank_used & (1u << bank)) != 0) {
      ++out.bank_conflicts;
      continue;  // kHeld — single-ported bank already claimed
    }
    bank_used |= 1u << bank;
    out.action[i] = ArbOutcome::Action::kWinner;
    // Cannot overflow: each winner claims a distinct bank bit and the
    // constructor enforces <= 32 banks.
    MALEC_DCHECK(n_winners < std::size(winners));
    winners[n_winners++] = Winner{i, key};
    ++buses_used;
  }

  // MBE: serviced when its bank port is free; needs no result bus.
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!candidates[i].is_mbe) continue;
    const BankIdx bank = p_.layout.bankOf(candidates[i].vaddr);
    if ((bank_used & (1u << bank)) == 0) {
      bank_used |= 1u << bank;
      out.action[i] = ArbOutcome::Action::kWinner;
    } else {
      ++out.bank_conflicts;
    }
    break;  // at most one MBE per group
  }
}

}  // namespace malec::core
