#include "core/baseline_interface.h"

#include "ckpt/state_io.h"
#include "common/check.h"

namespace malec::core {

BaselineInterface::BaselineInterface(const InterfaceConfig& cfg,
                                     const SystemConfig& sys,
                                     energy::EnergyAccount& ea)
    : cfg_(cfg), sys_(sys), backend_(cfg, sys, ea) {
  MALEC_CHECK(cfg.kind == InterfaceKind::kBase1LdSt ||
              cfg.kind == InterfaceKind::kBase2Ld1St);
}

void BaselineInterface::beginCycle(Cycle) { active_ = false; }

bool BaselineInterface::canAcceptLoad() const {
  // Allow a small backlog (loads displaced by an MBE write); beyond that
  // the AGUs stall.
  return pending_loads_.size() < loadPortsPerCycle() + 2u;
}

bool BaselineInterface::canAcceptStore() const {
  return backend_.canAcceptStore();
}

bool BaselineInterface::submit(const MemOp& op) {
  if (op.is_load) {
    if (!canAcceptLoad()) return false;
    // lint:allow(hot-alloc: pending-load list is bounded by canAcceptLoad and reuses retained capacity)
    pending_loads_.push_back(op);
    ++backend_.stats().loads_submitted;
  } else if (!backend_.submitStore(op)) {
    return false;
  }
  active_ = true;
  return true;
}

void BaselineInterface::notifyStoreCommit(SeqNum seq) {
  backend_.commitStore(seq);
  active_ = true;
}

void BaselineInterface::serviceLoads(Cycle now) {
  // Port budget: the rd/wt port serves either the MBE write or a load; the
  // extra rd port (Base2ld1st) serves one more load. The MBE write takes
  // the rd/wt port when it is the only work or the Merge Buffer is under
  // pressure.
  std::uint32_t load_budget = loadPortsPerCycle();
  const bool write_now =
      backend_.hasPendingMbe() &&
      (pending_loads_.empty() || backend_.mergeBufferFull());
  if (write_now || !pending_loads_.empty()) active_ = true;
  if (write_now) {
    // The MBE write translates like any other access (multi-ported TLB).
    const Addr line_base = backend_.takePendingMbe();
    backend_.write(line_base,
                   backend_.translate(sys_.layout.pageId(line_base)), now);
    --load_budget;
    if (!pending_loads_.empty()) ++backend_.stats().port_conflicts;
  }

  std::uint32_t serviced = 0;
  while (serviced < load_budget && !pending_loads_.empty()) {
    const MemOp op = pending_loads_.front();
    pending_loads_.erase(pending_loads_.begin());
    ++serviced;

    const auto tr = backend_.translate(sys_.layout.pageId(op.vaddr));
    const Cycle ready = backend_.forwards(op.vaddr, op.size)
                            ? now + cfg_.l1_latency
                            : backend_.load(op.vaddr, tr, now);
    backend_.complete(op.seq, ready + tr.extra_latency);
  }
}

void BaselineInterface::endCycle(Cycle now) {
  active_ |= backend_.tick();
  serviceLoads(now);
}

void BaselineInterface::drainCompletions(Cycle now,
                                         std::vector<SeqNum>& out) {
  active_ |= backend_.drainCompletions(now, out);
}

bool BaselineInterface::quiesced() const {
  return pending_loads_.empty() && backend_.quiesced();
}

Cycle BaselineInterface::quietUntil() const {
  // A quiet cycle had no load, MBE write or store drain to service, so
  // only a load completion can change state again. No stall counters.
  return active_ ? 0 : backend_.nextCompletion();
}

void BaselineInterface::saveState(ckpt::StateWriter& w) const {
  backend_.saveState(w);
  w.u64(pending_loads_.size());
  for (const MemOp& op : pending_loads_) saveMemOp(w, op);
}

void BaselineInterface::loadState(ckpt::StateReader& r) {
  backend_.loadState(r);
  const std::uint64_t pending = r.u64();
  // canAcceptLoad() bounds the backlog at ports + 2; a checkpoint past
  // that is from a different configuration (or corrupt beyond checksums).
  MALEC_CHECK_MSG(pending <= loadPortsPerCycle() + 2u,
                  "pending-load checkpoint exceeds this port organisation");
  pending_loads_.assign(static_cast<std::size_t>(pending), MemOp{});
  for (MemOp& op : pending_loads_) op = loadMemOp(r);
}

}  // namespace malec::core
