#include "core/l1_backend.h"

#include <algorithm>
#include <utility>

#include "ckpt/state_io.h"
#include "common/check.h"
#include "waydet/way_info.h"

namespace malec::core {

namespace {

/// Initial pending-fill capacity; a burst past it grows the table once.
constexpr std::size_t kPendingReserve = 64;

TranslationEngine::Params engineParams(const InterfaceConfig& cfg,
                                       WayDetKind waydet,
                                       const SystemConfig& sys) {
  TranslationEngine::Params p;
  p.layout = sys.layout;
  p.utlb_entries = sys.utlb_entries;
  p.tlb_entries = sys.tlb_entries;
  p.way_tables = waydet == WayDetKind::kWayTables;
  p.last_entry_feedback = cfg.last_entry_feedback;
  p.walk_latency = sys.page_walk_latency;
  p.seed = sys.seed * 17 + 9;
  return p;
}

}  // namespace

L1Backend::EventIds::EventIds(energy::EnergyAccount& ea, bool wdu)
    : ctrl(ea.resolveEvent("l1.ctrl")),
      tag_read(ea.resolveEvent("l1.tag_read")),
      tag_write(ea.resolveEvent("l1.tag_write")),
      data_read(ea.resolveEvent("l1.data_read")),
      data_write(ea.resolveEvent("l1.data_write")),
      line_read(ea.resolveEvent("l1.line_read")),
      line_write(ea.resolveEvent("l1.line_write")) {
  if (!wdu) return;
  wdu_search = ea.resolveEvent("wdu.search");
  wdu_write = ea.resolveEvent("wdu.write");
}

L1Backend::L1Backend(const InterfaceConfig& cfg, const SystemConfig& sys,
                     energy::EnergyAccount& ea)
    : cfg_(cfg),
      sys_(sys),
      waydet_(cfg.kind == InterfaceKind::kMalec ? cfg.waydet
                                                : WayDetKind::kNone),
      ea_(ea),
      id_(ea, waydet_ == WayDetKind::kWdu),
      l1_(sys.layout.l1Sets(), sys.layout.l1Assoc(), sys.layout.lineBytes()),
      l2_(static_cast<std::uint32_t>(mem::kL2Bytes / mem::kL2Ways /
                                     sys.layout.lineBytes()),
          mem::kL2Ways, sys.layout.lineBytes()),
      engine_(engineParams(cfg, waydet_, sys), ea),
      sb_(sys.sb_entries),
      mb_(sys.mb_entries, sys.layout) {
  pending_.reserve(kPendingReserve);
  if (waydet_ == WayDetKind::kWdu)
    wdu_ = std::make_unique<waydet::Wdu>(cfg.wdu_entries);
}

std::size_t L1Backend::dropExpiredAndFind(Cycle now, Addr line_base) {
  std::size_t keep = 0;
  std::size_t found = pending_.size();  // >= the compacted size: no match
  for (const PendingFill& f : pending_) {
    if (f.ready <= now) continue;
    if (f.line_base == line_base) found = keep;
    pending_[keep++] = f;
  }
  // lint:allow(hot-alloc: shrinking resize — compacts in place, never grows)
  pending_.resize(keep);
  return found;
}

Cycle L1Backend::miss(Addr paddr, Cycle now, bool is_store) {
  const Addr line_base = l1_.lineBase(paddr);
  Cycle ready = now + sys_.l2_latency;
  if (const std::size_t i = dropExpiredAndFind(now, line_base);
      i < pending_.size()) {
    // MSHR merge: the line was evicted inside its own fill window. It is
    // installed again, its data arrives with the outstanding fill, and the
    // L2 sees no second request.
    ready = pending_[i].ready;
  } else {
    if (const auto l2way = l2_.probe(paddr); l2way.has_value()) {
      l2_.touch(paddr, *l2way);
    } else {
      ready += sys_.dram_latency;
      // The L2 victim's writeback to DRAM is outside the energy scope.
      (void)l2_.fill(paddr, l2_.allWays());
    }
    // lint:allow(hot-alloc: reserved at construction; a burst past that grows it once and the capacity is kept)
    pending_.push_back(PendingFill{line_base, ready});
  }

  const mem::Cache::FillResult fill = l1_.fill(paddr, fillWays(paddr));
  // Write a dirty victim back into the L2 (allocate on a writeback miss).
  // The L2 copy stays clean: an L2 victim's writeback to DRAM is outside
  // the energy scope, so nothing would read an L2 dirty bit.
  if (fill.evicted_dirty && !l2_.probe(fill.evicted_line_base))
    (void)l2_.fill(fill.evicted_line_base, l2_.allWays());
  if (is_store) l1_.markDirty(paddr, fill.way);

  if (fill.evicted) {
    // Dirty victims are read out for writeback; the read is charged
    // unconditionally as a conservative model of the eviction sequence.
    ea_.count(id_.line_read);
    engine_.onLineEvict(fill.evicted_line_base);
    if (wdu_) wdu_->invalidate(sys_.layout.lineAddr(fill.evicted_line_base));
  }
  ea_.count(id_.tag_write);
  ea_.count(id_.line_write);
  engine_.onLineFill(line_base, fill.way);
  if (wdu_) wdu_->record(sys_.layout.lineAddr(line_base), fill.way);
  return ready;
}

bool L1Backend::submitStore(const MemOp& op) {
  if (sb_.full()) return false;
  sb_.insert(op.seq, op.vaddr, op.size);
  ++stats_.stores_submitted;
  return true;
}

bool L1Backend::tick() {
  // One committed store per cycle drains into the Merge Buffer, unless the
  // MB is full and its last eviction is still waiting (backpressure).
  if (mb_.full() && pending_mbe_.has_value()) return false;
  const auto entry = sb_.popCommitted();
  if (!entry.has_value()) return false;
  if (mb_.absorb(entry->vaddr, entry->size)) return true;
  if (mb_.full()) {
    const auto evicted = mb_.evictLru();
    MALEC_CHECK(evicted.has_value());
    pending_mbe_ = evicted->line_base;
  }
  mb_.allocate(entry->vaddr, entry->size);
  return true;
}

Addr L1Backend::takePendingMbe() {
  MALEC_CHECK(pending_mbe_.has_value());
  const Addr line_base = *pending_mbe_;
  pending_mbe_.reset();
  return line_base;
}

bool L1Backend::forwards(Addr vaddr, std::uint8_t size) {
  if (sb_.coversLoad(vaddr, size)) {
    ++stats_.sb_forwards;
    return true;
  }
  if (mb_.coversLoad(vaddr, size)) {
    ++stats_.mb_forwards;
    return true;
  }
  return false;
}

WayIdx L1Backend::lookupWay(std::uint32_t uwt_slot, Addr vaddr, Addr paddr) {
  switch (waydet_) {
    case WayDetKind::kNone:
      return kWayUnknown;
    case WayDetKind::kWayTables: {
      const WayIdx w = engine_.wayFor(uwt_slot, vaddr);
      ++stats_.way_lookups;
      if (w != kWayUnknown) ++stats_.way_known;
      return w;
    }
    case WayDetKind::kWdu: {
      ea_.count(id_.wdu_search);
      ++stats_.way_lookups;
      const auto w = wdu_->lookup(sys_.layout.lineAddr(paddr));
      if (w.has_value()) {
        ++stats_.way_known;
        return *w;
      }
      return kWayUnknown;
    }
  }
  return kWayUnknown;
}

void L1Backend::learnWay(Addr vaddr, Addr paddr, WayIdx way) {
  switch (waydet_) {
    case WayDetKind::kNone:
      return;
    case WayDetKind::kWayTables:
      engine_.feedbackConventionalHit(sys_.layout.pageId(vaddr), vaddr, way);
      return;
    case WayDetKind::kWdu:
      wdu_->record(sys_.layout.lineAddr(paddr), way);
      ea_.count(id_.wdu_write);
      return;
  }
}

std::uint64_t L1Backend::fillWays(Addr paddr) const {
  if (waydet_ != WayDetKind::kWayTables) return l1_.allWays();
  const std::uint32_t excluded = waydet::excludedWay(
      sys_.layout.lineInPage(paddr), sys_.layout.pageId(paddr),
      sys_.layout.l1Banks(), sys_.layout.l1Assoc());
  return l1_.allWays() & ~(1ull << excluded);
}

WayIdx L1Backend::access(Addr vaddr, Addr paddr, std::uint32_t uwt_slot,
                         bool write) {
  ea_.count(id_.ctrl);
  const WayIdx known = lookupWay(uwt_slot, vaddr, paddr);
  const auto probe = l1_.probe(paddr);
  const bool reduced = known != kWayUnknown;
  // A write fills one data way; a read fires one (reduced) or all of the
  // bank's data arrays (conventional), hit or miss.
  if (write) {
    ea_.count(id_.data_write);
  } else {
    ea_.count(id_.data_read, reduced ? 1 : sys_.layout.l1Assoc());
  }
  if (reduced) {
    // Tag arrays bypassed: validity maintenance guarantees the hit.
    MALEC_CHECK_MSG(probe == known, "way determination produced a wrong way");
    ++stats_.reduced_accesses;
  } else {
    // All tag arrays fire; the matching tag selects the data.
    ea_.count(id_.tag_read);
    ++stats_.conventional_accesses;
    if (!probe.has_value()) return kWayUnknown;
    learnWay(vaddr, paddr, *probe);
  }
  l1_.touch(paddr, *probe);
  if (write) l1_.markDirty(paddr, *probe);
  return *probe;
}

Cycle L1Backend::load(Addr vaddr, const TranslationEngine::Result& tr,
                      Cycle now) {
  const Addr paddr =
      sys_.layout.compose(tr.ppage, sys_.layout.pageOffset(vaddr));
  ++stats_.load_l1_accesses;
  if (access(vaddr, paddr, tr.uwt_slot, /*write=*/false) != kWayUnknown) {
    ++stats_.load_l1_hits;
    return now + cfg_.l1_latency;
  }
  ++stats_.load_l1_misses;
  // The returning fill supplies the critical word; delivery costs one L1
  // latency on top of the fill arrival.
  return miss(paddr, now, /*is_store=*/false) + cfg_.l1_latency;
}

void L1Backend::write(Addr vaddr, const TranslationEngine::Result& tr,
                      Cycle now) {
  const Addr paddr =
      sys_.layout.compose(tr.ppage, sys_.layout.pageOffset(vaddr));
  ++stats_.write_l1_accesses;
  ++stats_.mbe_writes;
  if (access(vaddr, paddr, tr.uwt_slot, /*write=*/true) != kWayUnknown)
    return;
  // Write-allocate on MBE miss.
  ++stats_.write_l1_misses;
  (void)miss(paddr, now, /*is_store=*/true);
}

bool L1Backend::drainCompletions(Cycle now, std::vector<SeqNum>& out) {
  const std::size_t before = out.size();
  // lint:allow(hot-alloc: caller-owned completion vector retains its capacity across cycles)
  completions_.drainReady(now, [&out](SeqNum seq) { out.push_back(seq); });
  return out.size() != before;
}

void L1Backend::saveState(ckpt::StateWriter& w) const {
  l1_.saveState(w);
  l2_.saveState(w);
  // pending_ is unordered — serialize it sorted by line base so the same
  // state always produces the same checkpoint bytes.
  std::vector<std::pair<Addr, Cycle>> pend;
  pend.reserve(pending_.size());
  for (const PendingFill& f : pending_) pend.emplace_back(f.line_base, f.ready);
  std::sort(pend.begin(), pend.end());
  w.u64(pend.size());
  for (const auto& [line, ready] : pend) {
    w.u64(line);
    w.u64(ready);
  }
  engine_.saveState(w);
  w.u8(wdu_ != nullptr ? 1 : 0);
  if (wdu_) wdu_->saveState(w);
  sb_.saveState(w);
  mb_.saveState(w);
  w.u8(pending_mbe_.has_value() ? 1 : 0);
  if (pending_mbe_.has_value()) w.u64(*pending_mbe_);
  completions_.saveState(w);
  for (const auto field : kInterfaceCounterFields) w.u64(stats_.*field);
}

void L1Backend::loadState(ckpt::StateReader& r) {
  l1_.loadState(r);
  l2_.loadState(r);
  pending_.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    PendingFill f;
    f.line_base = r.u64();
    f.ready = r.u64();
    pending_.push_back(f);
  }
  engine_.loadState(r);
  const bool has_wdu = r.u8() != 0;
  MALEC_CHECK_MSG(has_wdu == (wdu_ != nullptr),
                  "checkpoint disagrees with this configuration about the "
                  "WDU — config mismatch");
  if (wdu_) wdu_->loadState(r);
  sb_.loadState(r);
  mb_.loadState(r);
  if (r.u8() != 0) {
    pending_mbe_ = r.u64();
  } else {
    pending_mbe_.reset();
  }
  completions_.loadState(r);
  for (const auto field : kInterfaceCounterFields) stats_.*field = r.u64();
}

}  // namespace malec::core
