#include "core/malec_interface.h"

#include <algorithm>

#include "ckpt/state_io.h"
#include "common/check.h"

namespace malec::core {

MalecInterface::MalecInterface(const InterfaceConfig& cfg,
                               const SystemConfig& sys,
                               energy::EnergyAccount& ea)
    : cfg_(cfg),
      sys_(sys),
      backend_(cfg, sys, ea),
      ib_(cfg.ib_carry_slots, cfg.aguTotal(), cfg.ib_group_comparators,
          sys.layout),
      arb_(ArbitrationUnit::Params{sys.layout, cfg.result_buses,
                                   cfg.merge_window,
                                   cfg.subblocked_pair_read}) {
  MALEC_CHECK(cfg.kind == InterfaceKind::kMalec);
}

void MalecInterface::beginCycle(Cycle now) {
  now_ = now;
  active_ = false;
  // A waiting MB eviction claims the Input Buffer's MBE slot as soon as it
  // frees up.
  if (backend_.hasPendingMbe() && ib_.hasMbeSpace()) {
    active_ = true;
    const auto size = static_cast<std::uint8_t>(
        std::min<std::uint32_t>(sys_.layout.lineBytes(), 255));
    ib_.addMbe(MemOp{0, /*is_load=*/false, backend_.takePendingMbe(), size},
               now);
  }
}

bool MalecInterface::canAcceptLoad() const {
  return ib_.hasLoadSpace() && !ib_.overCommitted(now_);
}

bool MalecInterface::canAcceptStore() const {
  return backend_.canAcceptStore();
}

bool MalecInterface::submit(const MemOp& op) {
  if (op.is_load) {
    if (!canAcceptLoad()) return false;
    ib_.addLoad(op, now_);
    ++backend_.stats().loads_submitted;
  } else if (!backend_.submitStore(op)) {
    return false;
  }
  active_ = true;
  return true;
}

void MalecInterface::notifyStoreCommit(SeqNum seq) {
  backend_.commitStore(seq);
  active_ = true;
}

void MalecInterface::serviceGroup(Cycle now) {
  const auto head = ib_.selectHead(now);
  if (!head.has_value()) return;
  active_ = true;

  InterfaceStats& stats = backend_.stats();
  const auto tr = backend_.translate(ib_.pageOf(*head));
  if (tr.extra_latency > 0) {
    // uTLB miss: the TLB access (or page walk) occupies the translation
    // path; the whole page group waits. The entry retries when ready —
    // by then the uTLB holds the page.
    ib_.defer(*head, now + tr.extra_latency);
    ++stats.ib_hold_events;
    return;
  }

  // Form the page group around the head. All per-group containers are
  // member scratch buffers: this runs every cycle, so the steady state must
  // not allocate.
  std::vector<std::size_t>& members = group_scratch_;
  ib_.group(*head, now, members);
  ++stats.groups;

  std::vector<ArbCandidate>& cands = cand_scratch_;
  cands.clear();
  cands.reserve(members.size());
  for (std::size_t ib_idx : members) {
    const MemOp& op = ib_.op(ib_idx);
    // lint:allow(hot-alloc: cand_scratch_ is reserved above and retained across cycles)
    cands.push_back(ArbCandidate{ib_idx, op.vaddr, op.size, ib_.isMbe(ib_idx)});
  }

  const ArbOutcome& arb = arb_scratch_;
  arb_.arbitrate(cands, arb_scratch_);
  stats.bank_conflicts += arb.bank_conflicts;
  stats.bus_rejects += arb.bus_rejects;

  // One pass in candidate order: held members stay (counted as hold
  // events); each winner is serviced with its party, the winner first and
  // then the loads merged onto it. Merged loads sit at most merge_window
  // candidates after their winner, so the party scan stops there.
  const std::size_t window = cfg_.merge_window;
  std::uint64_t serviced = 0;  // Input Buffer entries to remove
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const ArbOutcome::Action action = arb.action[i];
    if (action == ArbOutcome::Action::kHeld) {
      ++stats.ib_hold_events;
      continue;
    }
    if (action != ArbOutcome::Action::kWinner) continue;  // in a party
    const ArbCandidate& c = cands[i];
    serviced |= std::uint64_t{1} << c.ib_index;
    ++stats.group_entries;

    if (c.is_mbe) {
      backend_.write(c.vaddr, tr, now);
      continue;
    }

    // Store/Merge Buffer forwarding first; the first non-forwarded member
    // performs the L1 read, the rest share its data.
    Cycle l1_ready = 0;
    bool l1_done = false;
    auto serve = [&](const ArbCandidate& m) {
      Cycle ready;
      if (backend_.forwards(m.vaddr, m.size)) {
        ready = now + cfg_.l1_latency;  // buffer read, same pipeline depth
      } else if (!l1_done) {
        ready = backend_.load(m.vaddr, tr, now);
        l1_ready = ready;
        l1_done = true;
      } else {
        ready = l1_ready;  // shares the winner's data read
        ++stats.merged_loads;
      }
      backend_.complete(ib_.op(m.ib_index).seq, ready);
    };
    serve(c);
    const std::size_t last = std::min(cands.size() - 1, i + window);
    for (std::size_t j = i + 1; j <= last; ++j) {
      if (arb.action[j] != ArbOutcome::Action::kMerged ||
          arb.winner_of[j] != i)
        continue;
      serviced |= std::uint64_t{1} << cands[j].ib_index;
      ++stats.group_entries;
      serve(cands[j]);
    }
  }

  ib_.remove(serviced);
}

void MalecInterface::endCycle(Cycle now) {
  active_ |= backend_.tick();
  serviceGroup(now);
  if (ibStalled(now)) ++backend_.stats().ib_stall_cycles;
}

bool MalecInterface::ibStalled(Cycle now) const {
  return !ib_.hasLoadSpace() || ib_.overCommitted(now + 1);
}

void MalecInterface::drainCompletions(Cycle now, std::vector<SeqNum>& out) {
  active_ |= backend_.drainCompletions(now, out);
}

bool MalecInterface::quiesced() const {
  return ib_.empty() && backend_.quiesced();
}

Cycle MalecInterface::quietUntil() const {
  if (active_) return 0;
  // Nothing was selectable, drained or popped this cycle, and the stall
  // test reads only buffer occupancy and arrival cycles, none of which a
  // quiet cycle changes. A load completion or a deferred Input Buffer
  // entry turning ready is the next thing time alone can change.
  return std::min(backend_.nextCompletion(), ib_.nextReadyCycle());
}

void MalecInterface::replayQuietCycles(Cycle n) {
  // The quiet cycle left the buffer as it was, so its stall test repeats.
  if (ibStalled(now_)) backend_.stats().ib_stall_cycles += n;
  now_ += n;
}

void MalecInterface::saveState(ckpt::StateWriter& w) const {
  // The per-cycle scratch buffers (group_scratch_ & co.) are rebuilt inside
  // serviceGroup() each cycle, so they carry no state across the
  // checkpoint boundary.
  backend_.saveState(w);
  ib_.saveState(w);
  w.u64(now_);
}

void MalecInterface::loadState(ckpt::StateReader& r) {
  backend_.loadState(r);
  ib_.loadState(r);
  now_ = r.u64();
}

}  // namespace malec::core
