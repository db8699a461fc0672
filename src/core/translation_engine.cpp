#include "core/translation_engine.h"

#include "ckpt/state_io.h"
#include "common/check.h"
#include "waydet/way_info.h"

namespace malec::core {

namespace {
tlb::Tlb::Params utlbParams(const TranslationEngine::Params& p) {
  tlb::Tlb::Params tp;
  tp.entries = p.utlb_entries;
  // Second chance keeps hot pages resident, minimising full-entry uWT->WT
  // writebacks (paper Sec. V).
  tp.replacement = mem::ReplacementKind::kSecondChance;
  tp.seed = p.seed * 3 + 1;
  return tp;
}

tlb::Tlb::Params tlbParams(const TranslationEngine::Params& p) {
  tlb::Tlb::Params tp;
  tp.entries = p.tlb_entries;
  tp.replacement = mem::ReplacementKind::kRandom;
  tp.seed = p.seed * 5 + 2;
  return tp;
}
}  // namespace

TranslationEngine::EventIds::EventIds(energy::EnergyAccount& ea)
    : utlb_search(ea.resolveEvent("utlb.search")),
      tlb_search(ea.resolveEvent("tlb.search")),
      utlb_psearch(ea.resolveEvent("utlb.psearch")),
      tlb_psearch(ea.resolveEvent("tlb.psearch")),
      uwt_read(ea.resolveEvent("uwt.read")),
      uwt_write(ea.resolveEvent("uwt.write")),
      wt_read(ea.resolveEvent("wt.read")),
      wt_write(ea.resolveEvent("wt.write")) {}

TranslationEngine::TranslationEngine(const Params& p,
                                     energy::EnergyAccount& ea)
    : p_(p),
      ea_(ea),
      id_(ea),
      pt_(/*phys_pages=*/65536, p.seed * 7 + 3),
      utlb_(utlbParams(p)),
      tlb_(tlbParams(p)),
      uwt_(p.utlb_entries, p.layout.linesPerPage(), p.layout.l1Banks(),
           p.layout.l1Assoc()),
      wt_(p.tlb_entries, p.layout.linesPerPage(), p.layout.l1Banks(),
          p.layout.l1Assoc()),
      last_entry_(p.last_entry_depth) {
  pt_.setWalkLatency(p.walk_latency);
}

void TranslationEngine::installIntoUtlb(PageId vpage, PageId ppage,
                                        std::uint32_t tlb_slot,
                                        bool tlb_entry_fresh) {
  // insert() below may recycle the memoized slot. Callers re-arm the memo
  // with the new mapping before returning.
  memo_valid_ = false;
  const tlb::Tlb::Insertion ins = utlb_.insert(vpage, ppage);
  if (!p_.way_tables) return;
  const std::uint32_t uslot = ins.slot;
  // uTLB eviction: write the (possibly updated) uWT entry back to the WT if
  // the page is still TLB-resident; otherwise the way information is lost
  // when the new page's entry overwrites the slot below.
  if (ins.displaced.valid) {
    if (auto tlb_slot = tlb_.probeV(ins.displaced.vpage);
        tlb_slot.has_value()) {
      wt_.copyEntryFrom(*tlb_slot, uwt_, uslot);
      ea_.count(id_.wt_write);
    }
  }
  if (tlb_entry_fresh) {
    // Newly walked page: no way information exists yet.
    uwt_.invalidateSlot(uslot);
  } else {
    // Copy the WT entry alongside the translation (Fig. 3 note 1).
    uwt_.copyEntryFrom(uslot, wt_, tlb_slot);
    ea_.count(id_.wt_read);
    ea_.count(id_.uwt_write);
  }
}

TranslationEngine::Result TranslationEngine::translate(PageId vpage) {
  Result r;
  ea_.count(id_.utlb_search);
  // Memoized repeat of the previous translation: replays the exact uTLB-hit
  // bookkeeping (replacement touch, hit counter, uWT read, last-entry push)
  // without the associative scan.
  if (memo_valid_ && vpage == memo_vpage_) {
    utlb_.repeatHit(memo_slot_);
    r.utlb_hit = true;
    r.ppage = utlb_.entry(memo_slot_).ppage;
    r.uwt_slot = memo_slot_;
    r.extra_latency = 0;
    if (p_.way_tables) {
      ea_.count(id_.uwt_read);
      last_entry_.push(memo_slot_, vpage);
    }
    return r;
  }
  if (auto uslot = utlb_.lookupV(vpage); uslot.has_value()) {
    r.utlb_hit = true;
    r.ppage = utlb_.entry(*uslot).ppage;
    r.uwt_slot = *uslot;
    r.extra_latency = 0;
    if (p_.way_tables) {
      ea_.count(id_.uwt_read);
      last_entry_.push(*uslot, vpage);
    }
    memo_valid_ = true;
    memo_vpage_ = vpage;
    memo_slot_ = *uslot;
    return r;
  }

  ea_.count(id_.tlb_search);
  if (auto tslot = tlb_.lookupV(vpage); tslot.has_value()) {
    r.tlb_hit = true;
    r.ppage = tlb_.entry(*tslot).ppage;
    r.extra_latency = 1;
    installIntoUtlb(vpage, r.ppage, *tslot, /*tlb_entry_fresh=*/false);
    const auto uslot = utlb_.probeV(vpage);
    MALEC_CHECK(uslot.has_value());
    r.uwt_slot = *uslot;
    if (p_.way_tables) last_entry_.push(*uslot, vpage);
    memo_valid_ = true;
    memo_vpage_ = vpage;
    memo_slot_ = *uslot;
    return r;
  }

  // Page walk.
  r.ppage = pt_.translate(vpage);
  r.extra_latency = pt_.walkLatency();
  const tlb::Tlb::Insertion ins = tlb_.insert(vpage, r.ppage);
  const std::uint32_t tslot = ins.slot;
  if (ins.displaced.valid) {
    // TLB eviction invalidates any shadowing uTLB/uWT slot (Fig. 3 note:
    // "update uTLB&uWT on ... TLB evictions").
    if (auto uslot = utlb_.probeV(ins.displaced.vpage); uslot.has_value()) {
      if (p_.way_tables) uwt_.invalidateSlot(*uslot);
      utlb_.invalidate(*uslot);
    }
  }
  // The slot's WT entry described the displaced page, or nothing.
  if (p_.way_tables) wt_.invalidateSlot(tslot);
  installIntoUtlb(vpage, r.ppage, tslot, /*tlb_entry_fresh=*/true);
  const auto uslot = utlb_.probeV(vpage);
  MALEC_CHECK(uslot.has_value());
  r.uwt_slot = *uslot;
  if (p_.way_tables) last_entry_.push(*uslot, vpage);
  memo_valid_ = true;
  memo_vpage_ = vpage;
  memo_slot_ = *uslot;
  return r;
}

WayIdx TranslationEngine::wayFor(std::uint32_t uwt_slot, Addr vaddr) {
  if (!p_.way_tables) return kWayUnknown;
  const std::uint32_t salt = utlb_.entry(uwt_slot).ppage;
  return uwt_.lookup(uwt_slot, p_.layout.lineInPage(vaddr), salt);
}

void TranslationEngine::feedbackConventionalHit(PageId vpage, Addr vaddr,
                                                WayIdx way) {
  if (!p_.way_tables || !p_.last_entry_feedback) return;
  MALEC_DCHECK(way != kWayUnknown);
  const auto slot = last_entry_.match(vpage);
  if (!slot.has_value()) return;
  // The slot must still map the same page (second-chance replacement makes
  // displacement while in the FIFO unlikely but possible).
  const auto& e = utlb_.entry(*slot);
  if (!e.valid || e.vpage != vpage) return;
  uwt_.record(*slot, p_.layout.lineInPage(vaddr), e.ppage,
              static_cast<std::uint32_t>(way));
  ea_.count(id_.uwt_write);
}

void TranslationEngine::onLineFill(Addr paddr_line_base, WayIdx way) {
  if (!p_.way_tables) return;
  MALEC_DCHECK(way != kWayUnknown);
  const PageId ppage = p_.layout.pageId(paddr_line_base);
  const std::uint32_t line = p_.layout.lineInPage(paddr_line_base);
  // "The WT is only updated if no corresponding uWT entry was found."
  ea_.count(id_.utlb_psearch);
  if (auto uslot = utlb_.lookupP(ppage); uslot.has_value()) {
    uwt_.record(*uslot, line, ppage, static_cast<std::uint32_t>(way));
    ea_.count(id_.uwt_write);
    return;
  }
  ea_.count(id_.tlb_psearch);
  if (auto tslot = tlb_.lookupP(ppage); tslot.has_value()) {
    wt_.record(*tslot, line, ppage, static_cast<std::uint32_t>(way));
    ea_.count(id_.wt_write);
  }
}

void TranslationEngine::onLineEvict(Addr paddr_line_base) {
  if (!p_.way_tables) return;
  const PageId ppage = p_.layout.pageId(paddr_line_base);
  const std::uint32_t line = p_.layout.lineInPage(paddr_line_base);
  ea_.count(id_.utlb_psearch);
  if (auto uslot = utlb_.lookupP(ppage); uslot.has_value()) {
    uwt_.clearLine(*uslot, line);
    ea_.count(id_.uwt_write);
    return;
  }
  ea_.count(id_.tlb_psearch);
  if (auto tslot = tlb_.lookupP(ppage); tslot.has_value()) {
    wt_.clearLine(*tslot, line);
    ea_.count(id_.wt_write);
  }
}

void TranslationEngine::saveState(ckpt::StateWriter& w) const {
  pt_.saveState(w);
  utlb_.saveState(w);
  tlb_.saveState(w);
  uwt_.saveState(w);
  wt_.saveState(w);
  last_entry_.saveState(w);
}

void TranslationEngine::loadState(ckpt::StateReader& r) {
  pt_.loadState(r);
  utlb_.loadState(r);
  tlb_.loadState(r);
  uwt_.loadState(r);
  wt_.loadState(r);
  last_entry_.loadState(r);
  memo_valid_ = false;
}

}  // namespace malec::core
