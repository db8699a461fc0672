#include "tlb/tlb.h"

#include "ckpt/state_io.h"
#include "common/check.h"

namespace malec::tlb {

Tlb::Tlb(const Params& p)
    : slots_(p.entries),
      repl_(mem::makePolicy(p.replacement, 1, p.entries, Rng(p.seed))) {
  MALEC_CHECK(p.entries >= 1);
}

std::optional<std::uint32_t> Tlb::lookupV(PageId vpage) {
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].valid && slots_[i].vpage == vpage) {
      repl_->touch(0, i);
      return i;
    }
  }
  return std::nullopt;
}

std::optional<std::uint32_t> Tlb::probeV(PageId vpage) const {
  for (std::uint32_t i = 0; i < slots_.size(); ++i)
    if (slots_[i].valid && slots_[i].vpage == vpage) return i;
  return std::nullopt;
}

std::optional<std::uint32_t> Tlb::lookupP(PageId ppage) const {
  for (std::uint32_t i = 0; i < slots_.size(); ++i)
    if (slots_[i].valid && slots_[i].ppage == ppage) return i;
  return std::nullopt;
}

Tlb::Insertion Tlb::insert(PageId vpage, PageId ppage) {
  Insertion ins;
  // Reuse an existing mapping slot for the same vpage if present.
  if (auto slot = probeV(vpage); slot.has_value()) {
    slots_[*slot].ppage = ppage;
    repl_->touch(0, *slot);
    ins.slot = *slot;
    return ins;
  }
  // Prefer an invalid slot.
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].valid) {
      slots_[i] = Entry{true, vpage, ppage};
      repl_->fill(0, i);
      ins.slot = i;
      return ins;
    }
  }
  const std::uint64_t all =
      slots_.size() >= 64 ? ~0ull : ((1ull << slots_.size()) - 1);
  ins.slot = repl_->victim(0, all);
  ins.displaced = slots_[ins.slot];
  slots_[ins.slot] = Entry{true, vpage, ppage};
  repl_->fill(0, ins.slot);
  return ins;
}

void Tlb::invalidate(std::uint32_t slot) {
  MALEC_CHECK(slot < slots_.size());
  slots_[slot].valid = false;
}

const Tlb::Entry& Tlb::entry(std::uint32_t slot) const {
  MALEC_CHECK(slot < slots_.size());
  return slots_[slot];
}

void Tlb::saveState(ckpt::StateWriter& w) const {
  w.u64(slots_.size());
  for (const Entry& e : slots_) {
    w.u8(e.valid ? 1 : 0);
    w.u32(e.vpage);
    w.u32(e.ppage);
  }
  repl_->saveState(w);
}

void Tlb::loadState(ckpt::StateReader& r) {
  MALEC_CHECK_MSG(r.u64() == slots_.size(),
                  "TLB checkpoint state does not fit this geometry");
  for (Entry& e : slots_) {
    e.valid = r.u8() != 0;
    e.vpage = r.u32();
    e.ppage = r.u32();
  }
  repl_->loadState(r);
}

}  // namespace malec::tlb
