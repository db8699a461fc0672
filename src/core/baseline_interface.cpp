#include "core/baseline_interface.h"

#include <algorithm>

#include "ckpt/state_io.h"
#include "common/check.h"

namespace malec::core {

namespace {

mem::L1Cache::Params l1Params(const SystemConfig& sys) {
  mem::L1Cache::Params p;
  p.layout = sys.layout;
  p.restrict_alloc_ways = false;  // baselines use all four ways
  p.seed = sys.seed * 11 + 5;
  return p;
}

mem::L2Cache::Params l2Params(const SystemConfig& sys) {
  mem::L2Cache::Params p;
  p.line_bytes = sys.layout.lineBytes();
  p.seed = sys.seed * 13 + 7;
  return p;
}

mem::MemoryHierarchy::Params hierParams(const SystemConfig& sys) {
  mem::MemoryHierarchy::Params p;
  p.l2_latency = sys.l2_latency;
  p.dram_latency = sys.dram_latency;
  p.mshrs = sys.mshrs;
  return p;
}

TranslationEngine::Params engineParams(const SystemConfig& sys) {
  TranslationEngine::Params p;
  p.layout = sys.layout;
  p.utlb_entries = sys.utlb_entries;
  p.tlb_entries = sys.tlb_entries;
  p.way_tables = false;  // baselines have no way determination
  p.walk_latency = sys.page_walk_latency;
  p.seed = sys.seed * 17 + 9;
  return p;
}

}  // namespace

BaselineInterface::BaselineInterface(const InterfaceConfig& cfg,
                                     const SystemConfig& sys,
                                     energy::EnergyAccount& ea)
    : cfg_(cfg),
      sys_(sys),
      ea_(ea),
      id_(ea),
      l1_(l1Params(sys)),
      l2_(l2Params(sys)),
      hier_(l1_, l2_, hierParams(sys)),
      engine_(engineParams(sys), ea),
      sb_(sys.sb_entries, sys.layout),
      mb_(sys.mb_entries, sys.layout) {
  MALEC_CHECK(cfg.kind == InterfaceKind::kBase1LdSt ||
              cfg.kind == InterfaceKind::kBase2Ld1St);

  hier_.setFillCallback([this](Addr, WayIdx) {
    ea_.count(id_.tag_write);
    ea_.count(id_.line_write);
  });
  hier_.setEvictCallback([this](Addr) { ea_.count(id_.line_read); });
}

std::uint32_t BaselineInterface::loadPortsPerCycle() const {
  // Base1ldst: the single rd/wt port. Base2ld1st: rd/wt + rd.
  return cfg_.kind == InterfaceKind::kBase1LdSt ? 1 : 2;
}

void BaselineInterface::beginCycle(Cycle now) {
  now_ = now;
  active_ = false;
}

bool BaselineInterface::canAcceptLoad() const {
  // Allow a small backlog (loads displaced by an MBE write); beyond that
  // the AGUs stall.
  return pending_loads_.size() < loadPortsPerCycle() + 2u;
}

bool BaselineInterface::canAcceptStore() const { return !sb_.full(); }

bool BaselineInterface::submit(const MemOp& op) {
  if (op.is_load) {
    if (!canAcceptLoad()) return false;
    // lint:allow(hot-alloc: pending-load list is bounded by canAcceptLoad and reuses retained capacity)
    pending_loads_.push_back(op);
    ++stats_.loads_submitted;
  } else {
    if (sb_.full()) return false;
    sb_.insert(op.seq, op.vaddr, op.size);
    ++stats_.stores_submitted;
  }
  active_ = true;
  return true;
}

void BaselineInterface::notifyStoreCommit(SeqNum seq) {
  sb_.markCommitted(seq);
  active_ = true;
}

void BaselineInterface::drainStoreBuffer() {
  if (mb_.full() && pending_mbe_.has_value()) return;
  auto entry = sb_.popCommitted();
  if (!entry.has_value()) return;
  active_ = true;
  if (mb_.absorb(entry->vaddr, entry->size)) return;
  if (mb_.full()) {
    pending_mbe_ = mb_.evictLru();
    MALEC_CHECK(pending_mbe_.has_value());
  }
  mb_.allocate(entry->vaddr, entry->size);
}

Cycle BaselineInterface::accessL1Load([[maybe_unused]] const MemOp& op, Addr paddr,
                                      Cycle now) {
  ++stats_.load_l1_accesses;
  ++stats_.conventional_accesses;
  ea_.count(id_.ctrl);
  // Conventional access: all tag and all data arrays of the addressed bank
  // fire in parallel; the matching tag selects the data (paper Sec. V).
  ea_.count(id_.tag_read);
  ea_.count(id_.data_read, sys_.layout.l1Assoc());
  const auto probe = l1_.probe(paddr);
  if (probe.has_value()) {
    ++stats_.load_l1_hits;
    l1_.touch(paddr, *probe);
    return now + cfg_.l1_latency;
  }
  ++stats_.load_l1_misses;
  const auto miss = hier_.missAccess(paddr, now, /*is_store=*/false);
  return miss.ready_cycle + cfg_.l1_latency;
}

void BaselineInterface::accessL1Write(Addr vaddr, Cycle now) {
  ++stats_.write_l1_accesses;
  ++stats_.mbe_writes;
  ++stats_.conventional_accesses;
  // The MBE write translates like any other access (multi-ported TLB).
  const auto tr = engine_.translate(sys_.layout.pageId(vaddr));
  const Addr paddr =
      sys_.layout.compose(tr.ppage, sys_.layout.pageOffset(vaddr));
  ea_.count(id_.ctrl);
  ea_.count(id_.tag_read);
  const auto probe = l1_.probe(paddr);
  if (probe.has_value()) {
    ea_.count(id_.data_write);
    l1_.markDirty(paddr, *probe);
    l1_.touch(paddr, *probe);
    return;
  }
  ++stats_.write_l1_misses;
  (void)hier_.missAccess(paddr, now, /*is_store=*/true);
  ea_.count(id_.data_write);
}

void BaselineInterface::serviceLoads(Cycle now) {
  // Port budget: the rd/wt port serves either the MBE write or a load; the
  // extra rd port (Base2ld1st) serves one more load. The MBE write takes
  // the rd/wt port when it is the only work or the Merge Buffer is under
  // pressure.
  std::uint32_t load_budget = loadPortsPerCycle();
  const bool write_now =
      pending_mbe_.has_value() && (pending_loads_.empty() || mb_.full());
  if (write_now || !pending_loads_.empty()) active_ = true;
  if (write_now) {
    accessL1Write(pending_mbe_->line_base, now);
    pending_mbe_.reset();
    --load_budget;
    if (!pending_loads_.empty()) ++stats_.port_conflicts;
  }

  std::uint32_t serviced = 0;
  while (serviced < load_budget && !pending_loads_.empty()) {
    const MemOp op = pending_loads_.front();
    pending_loads_.erase(pending_loads_.begin());
    ++serviced;

    const auto tr = engine_.translate(sys_.layout.pageId(op.vaddr));
    const Addr paddr =
        sys_.layout.compose(tr.ppage, sys_.layout.pageOffset(op.vaddr));

    const bool fwd_sb = sb_.coversLoad(op.vaddr, op.size, /*split=*/false);
    const bool fwd_mb =
        !fwd_sb && mb_.coversLoad(op.vaddr, op.size, /*split=*/false);
    if (fwd_sb) ++stats_.sb_forwards;
    if (fwd_mb) ++stats_.mb_forwards;

    Cycle ready;
    if (fwd_sb || fwd_mb) {
      ready = now + cfg_.l1_latency + tr.extra_latency;
    } else {
      ready = accessL1Load(op, paddr, now) + tr.extra_latency;
    }
    completions_.push(ready, op.seq);
  }
}

void BaselineInterface::endCycle(Cycle now) {
  drainStoreBuffer();
  serviceLoads(now);
}

void BaselineInterface::drainCompletions(Cycle now,
                                         std::vector<SeqNum>& out) {
  const std::size_t before = out.size();
  // lint:allow(hot-alloc: caller-owned completion vector retains its capacity across cycles)
  completions_.drainReady(now, [&out](SeqNum seq) { out.push_back(seq); });
  if (out.size() != before) active_ = true;
}

bool BaselineInterface::quiesced() const {
  return pending_loads_.empty() && completions_.empty() && sb_.size() == 0 &&
         !pending_mbe_.has_value();
}

Cycle BaselineInterface::quietUntil() const {
  // A quiet cycle had no load, MBE write or store drain to service, so
  // only a load completion can change state again. No stall counters.
  return active_ ? 0 : completions_.nextCycle();
}

void BaselineInterface::saveState(ckpt::StateWriter& w) const {
  l1_.saveState(w);
  l2_.saveState(w);
  hier_.saveState(w);
  engine_.saveState(w);
  sb_.saveState(w);
  mb_.saveState(w);
  w.u64(pending_loads_.size());
  for (const MemOp& op : pending_loads_) saveMemOp(w, op);
  w.u8(pending_mbe_.has_value() ? 1 : 0);
  if (pending_mbe_.has_value()) lsq::MergeBuffer::saveEntry(w, *pending_mbe_);
  completions_.saveState(w);
  for (const auto field : kInterfaceCounterFields) w.u64(stats_.*field);
  w.u64(now_);
}

void BaselineInterface::loadState(ckpt::StateReader& r) {
  l1_.loadState(r);
  l2_.loadState(r);
  hier_.loadState(r);
  engine_.loadState(r);
  sb_.loadState(r);
  mb_.loadState(r);
  const std::uint64_t pending = r.u64();
  // canAcceptLoad() bounds the backlog at ports + 2; a checkpoint past
  // that is from a different configuration (or corrupt beyond checksums).
  MALEC_CHECK_MSG(pending <= loadPortsPerCycle() + 2u,
                  "pending-load checkpoint exceeds this port organisation");
  pending_loads_.assign(static_cast<std::size_t>(pending), MemOp{});
  for (MemOp& op : pending_loads_) op = loadMemOp(r);
  if (r.u8() != 0) {
    pending_mbe_ = lsq::MergeBuffer::loadEntry(r);
  } else {
    pending_mbe_.reset();
  }
  completions_.loadState(r);
  for (const auto field : kInterfaceCounterFields) stats_.*field = r.u64();
  now_ = r.u64();
}

}  // namespace malec::core
