#include "core/malec_interface.h"

#include <algorithm>

#include "ckpt/state_io.h"
#include "common/check.h"

namespace malec::core {

namespace {

mem::L1Cache::Params l1Params(const InterfaceConfig& cfg,
                              const SystemConfig& sys) {
  mem::L1Cache::Params p;
  p.layout = sys.layout;
  // The 3-way allocation restriction only applies when Way Tables encode
  // ways (Sec. V); the WDU and no-waydet variants use all four ways.
  p.restrict_alloc_ways = cfg.waydet == WayDetKind::kWayTables;
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

TranslationEngine::Params engineParams(const InterfaceConfig& cfg,
                                       const SystemConfig& sys) {
  TranslationEngine::Params p;
  p.layout = sys.layout;
  p.utlb_entries = sys.utlb_entries;
  p.tlb_entries = sys.tlb_entries;
  p.way_tables = cfg.waydet == WayDetKind::kWayTables;
  p.last_entry_feedback = cfg.last_entry_feedback;
  p.last_entry_depth = cfg.last_entry_depth;
  p.walk_latency = sys.page_walk_latency;
  p.seed = sys.seed * 17 + 9;
  return p;
}

}  // namespace

MalecInterface::MalecInterface(const InterfaceConfig& cfg,
                               const SystemConfig& sys,
                               energy::EnergyAccount& ea)
    : cfg_(cfg),
      sys_(sys),
      ea_(ea),
      id_(ea),
      l1_(l1Params(cfg, sys)),
      l2_(l2Params(sys)),
      hier_(l1_, l2_, hierParams(sys)),
      engine_(engineParams(cfg, sys), ea),
      sb_(sys.sb_entries, sys.layout),
      mb_(sys.mb_entries, sys.layout),
      ib_(cfg.ib_carry_slots, cfg.aguTotal(), cfg.ib_group_comparators,
          sys.layout),
      arb_(ArbitrationUnit::Params{sys.layout, cfg.result_buses,
                                   cfg.merge_window, cfg.merge_loads,
                                   cfg.subblocked_pair_read}) {
  MALEC_CHECK(cfg.kind == InterfaceKind::kMalec);
  if (cfg.waydet == WayDetKind::kWdu)
    wdu_ = std::make_unique<waydet::Wdu>(cfg.wdu_entries);

  // Line fill/eviction hooks: fill energy, WT validity and WDU maintenance.
  hier_.setFillCallback([this](Addr line_base, WayIdx way) {
    ea_.count(id_.l1.tag_write);
    ea_.count(id_.l1.line_write);
    engine_.onLineFill(line_base, way);
    if (wdu_) wdu_->record(sys_.layout.lineAddr(line_base), way);
  });
  hier_.setEvictCallback([this](Addr line_base) {
    // Dirty victims are read out for writeback; the read is charged
    // unconditionally as a conservative model of the eviction sequence.
    ea_.count(id_.l1.line_read);
    engine_.onLineEvict(line_base);
    if (wdu_) wdu_->invalidate(sys_.layout.lineAddr(line_base));
  });
}

void MalecInterface::beginCycle(Cycle now) {
  now_ = now;
  active_ = false;
  // A waiting MB eviction claims the Input Buffer's MBE slot as soon as it
  // frees up.
  if (pending_mbe_.has_value() && ib_.hasMbeSpace()) {
    active_ = true;
    MemOp op;
    op.seq = 0;
    op.is_load = false;
    op.vaddr = pending_mbe_->line_base;
    op.size = static_cast<std::uint8_t>(
        std::min<std::uint32_t>(sys_.layout.lineBytes(), 255));
    ib_.addMbe(op, now);
    pending_mbe_.reset();
  }
}

bool MalecInterface::canAcceptLoad() const {
  return ib_.hasLoadSpace() && !ib_.overCommitted(now_);
}

bool MalecInterface::canAcceptStore() const { return !sb_.full(); }

bool MalecInterface::submit(const MemOp& op) {
  if (op.is_load) {
    if (!canAcceptLoad()) return false;
    ib_.addLoad(op, now_);
    ++stats_.loads_submitted;
  } else {
    if (sb_.full()) return false;
    sb_.insert(op.seq, op.vaddr, op.size);
    ++stats_.stores_submitted;
  }
  active_ = true;
  return true;
}

void MalecInterface::notifyStoreCommit(SeqNum seq) {
  sb_.markCommitted(seq);
  active_ = true;
}

void MalecInterface::drainStoreBuffer(Cycle now) {
  (void)now;
  // One committed store per cycle drains into the Merge Buffer.
  if (mb_.full() && pending_mbe_.has_value()) return;  // backpressure
  // Peek: only pop when we can place the store.
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

WayIdx MalecInterface::lookupWay(std::uint32_t uwt_slot, Addr vaddr,
                                 Addr paddr) {
  switch (cfg_.waydet) {
    case WayDetKind::kNone:
      return kWayUnknown;
    case WayDetKind::kWayTables: {
      const WayIdx w = engine_.wayFor(uwt_slot, vaddr);
      ++stats_.way_lookups;
      ++window_lookups_;
      if (w != kWayUnknown) {
        ++stats_.way_known;
        ++window_known_;
      }
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

void MalecInterface::learnWay(PageId vpage, Addr vaddr, Addr paddr,
                              WayIdx way) {
  switch (cfg_.waydet) {
    case WayDetKind::kNone:
      return;
    case WayDetKind::kWayTables:
      engine_.feedbackConventionalHit(vpage, vaddr, way);
      return;
    case WayDetKind::kWdu:
      wdu_->record(sys_.layout.lineAddr(paddr), way);
      ea_.count(id_.wdu_write);
      return;
  }
}

Cycle MalecInterface::accessL1Load(const MemOp& op, PageId vpage, Addr paddr,
                                   std::uint32_t uwt_slot, Cycle now) {
  ++stats_.load_l1_accesses;
  ++window_accesses_;
  ea_.count(id_.l1.ctrl);
  const WayIdx way = lookupWay(uwt_slot, op.vaddr, paddr);
  const auto probe = l1_.probe(paddr);

  if (way != kWayUnknown) {
    // Reduced access: tag arrays bypassed, exactly one data way read.
    // Validity maintenance guarantees the hit (paper Sec. V).
    MALEC_CHECK_MSG(probe.has_value() && *probe == way,
                    "way determination produced a wrong way");
    ea_.count(id_.l1.data_read);
    ++stats_.reduced_accesses;
    ++stats_.load_l1_hits;
    l1_.touch(paddr, way);
    return now + cfg_.l1_latency;
  }

  // Conventional access: parallel read of all tag arrays and all data
  // arrays of the bank; the matching tag selects the data (paper Sec. V).
  ea_.count(id_.l1.tag_read);
  ea_.count(id_.l1.data_read, sys_.layout.l1Assoc());
  ++stats_.conventional_accesses;
  if (probe.has_value()) {
    ++stats_.load_l1_hits;
    l1_.touch(paddr, *probe);
    learnWay(vpage, op.vaddr, paddr, *probe);
    return now + cfg_.l1_latency;
  }

  ++stats_.load_l1_misses;
  ++window_misses_;
  const auto miss = hier_.missAccess(paddr, now, /*is_store=*/false);
  // The returning fill supplies the critical word; delivery costs one L1
  // latency on top of the fill arrival.
  return miss.ready_cycle + cfg_.l1_latency;
}

void MalecInterface::accessL1Write(const MemOp& op, PageId vpage, Addr paddr,
                                   std::uint32_t uwt_slot, Cycle now) {
  ++stats_.write_l1_accesses;
  ++stats_.mbe_writes;
  ea_.count(id_.l1.ctrl);
  const WayIdx way = lookupWay(uwt_slot, op.vaddr, paddr);
  const auto probe = l1_.probe(paddr);

  if (way != kWayUnknown) {
    MALEC_CHECK_MSG(probe.has_value() && *probe == way,
                    "way determination produced a wrong way on write");
    ea_.count(id_.l1.data_write);
    ++stats_.reduced_accesses;
    l1_.markDirty(paddr, way);
    l1_.touch(paddr, way);
    return;
  }

  ea_.count(id_.l1.tag_read);
  ++stats_.conventional_accesses;
  if (probe.has_value()) {
    ea_.count(id_.l1.data_write);
    l1_.markDirty(paddr, *probe);
    l1_.touch(paddr, *probe);
    learnWay(vpage, op.vaddr, paddr, *probe);
    return;
  }

  // Write-allocate on MBE miss.
  ++stats_.write_l1_misses;
  (void)hier_.missAccess(paddr, now, /*is_store=*/true);
  ea_.count(id_.l1.data_write);
}

void MalecInterface::complete(SeqNum seq, Cycle ready) {
  completions_.push(ready, seq);
}

void MalecInterface::serviceGroup(Cycle now) {
  const auto head = ib_.selectHead(now);
  if (!head.has_value()) return;
  active_ = true;

  const PageId vpage = ib_.pageOf(*head);
  const auto tr = engine_.translate(vpage);
  if (tr.extra_latency > 0) {
    // uTLB miss: the TLB access (or page walk) occupies the translation
    // path; the whole page group waits. The entry retries when ready —
    // by then the uTLB holds the page.
    ib_.defer(*head, now + tr.extra_latency);
    ++stats_.ib_hold_events;
    return;
  }

  // Form the page group around the head. All per-group containers are
  // member scratch buffers: this runs every cycle, so the steady state must
  // not allocate.
  std::vector<std::size_t>& members = group_scratch_;
  ib_.group(*head, now, members);
  ++stats_.groups;

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
  stats_.bank_conflicts += arb.bank_conflicts;
  stats_.bus_rejects += arb.bus_rejects;

  // Gather per-winner parties: winner first, merged followers after.
  std::vector<std::size_t>& serviced = serviced_scratch_;  // ib indices
  serviced.clear();

  for (std::size_t i = 0; i < cands.size(); ++i) {
    if (arb.action[i] != ArbOutcome::Action::kWinner) continue;
    const ArbCandidate& c = cands[i];
    const Addr paddr =
        sys_.layout.compose(tr.ppage, sys_.layout.pageOffset(c.vaddr));

    if (c.is_mbe) {
      accessL1Write(ib_.op(c.ib_index), vpage, paddr, tr.uwt_slot, now);
      // lint:allow(hot-alloc: serviced_scratch_ retains capacity across cycles)
      serviced.push_back(c.ib_index);
      ++stats_.group_entries;
      continue;
    }

    // Collect this winner's party (the loads merged onto it).
    std::vector<std::size_t>& party = party_scratch_;  // cand indices
    party.clear();
    // lint:allow(hot-alloc: party_scratch_ retains capacity across cycles)
    party.push_back(i);
    for (std::size_t j = 0; j < cands.size(); ++j)
      if (arb.action[j] == ArbOutcome::Action::kMerged &&
          arb.winner_of[j] == i)
        // lint:allow(hot-alloc: party_scratch_ retains capacity across cycles)
        party.push_back(j);

    // Store/Merge Buffer forwarding first; the first non-forwarded member
    // performs the L1 read, the rest share its data.
    Cycle l1_ready = 0;
    bool l1_done = false;
    for (std::size_t pj = 0; pj < party.size(); ++pj) {
      const ArbCandidate& m = cands[party[pj]];
      const MemOp& mop = ib_.op(m.ib_index);
      const bool fwd_sb = sb_.coversLoad(m.vaddr, m.size, /*split=*/true);
      const bool fwd_mb =
          !fwd_sb && mb_.coversLoad(m.vaddr, m.size, /*split=*/true);
      if (fwd_sb) ++stats_.sb_forwards;
      if (fwd_mb) ++stats_.mb_forwards;
      Cycle ready;
      if (fwd_sb || fwd_mb) {
        ready = now + cfg_.l1_latency;  // buffer read, same pipeline depth
      } else if (!l1_done) {
        const Addr mpaddr =
            sys_.layout.compose(tr.ppage, sys_.layout.pageOffset(m.vaddr));
        ready = accessL1Load(mop, vpage, mpaddr, tr.uwt_slot, now);
        l1_ready = ready;
        l1_done = true;
      } else {
        ready = l1_ready;  // shares the winner's data read
        ++stats_.merged_loads;
      }
      complete(mop.seq, ready);
      // lint:allow(hot-alloc: serviced_scratch_ retains capacity across cycles)
      serviced.push_back(m.ib_index);
      ++stats_.group_entries;
    }
  }

  // Held members stay; count the hold events for the stats.
  for (std::size_t i = 0; i < cands.size(); ++i)
    if (arb.action[i] == ArbOutcome::Action::kHeld) ++stats_.ib_hold_events;

  ib_.remove(serviced);
}

void MalecInterface::endCycle(Cycle now) {
  // Run-time bypass (Sec. VI-D): suspend way determination through
  // streaming phases where its updates cost energy without paying off.
  if (cfg_.adaptive_bypass && cfg_.waydet == WayDetKind::kWayTables &&
      window_accesses_ >= cfg_.bypass_window) {
    active_ = true;
    const double miss_rate = static_cast<double>(window_misses_) /
                             static_cast<double>(window_accesses_);
    // While suspended no lookups happen; treat coverage as zero then (the
    // resume decision rests on the miss rate alone, so no deadlock).
    const double coverage =
        window_lookups_ == 0 ? 0.0
                             : static_cast<double>(window_known_) /
                                   static_cast<double>(window_lookups_);
    // Hysteresis: suspend only after two consecutive windows that are
    // both high-miss AND low-coverage (cold-start compulsory misses must
    // not trip the bypass, and any useful coverage is worth keeping);
    // resume once the miss rate falls clearly below the threshold.
    const bool losing = miss_rate > cfg_.bypass_threshold &&
                        (engine_.suspended() ||
                         coverage < cfg_.bypass_min_coverage);
    if (losing) {
      if (++high_miss_windows_ >= 2) {
        engine_.setSuspended(true);
        ++bypass_windows_;
      }
    } else if (miss_rate < cfg_.bypass_threshold * 0.5 ||
               coverage >= cfg_.bypass_min_coverage) {
      high_miss_windows_ = 0;
      engine_.setSuspended(false);
    }
    window_accesses_ = 0;
    window_misses_ = 0;
    window_lookups_ = 0;
    window_known_ = 0;
  }
  drainStoreBuffer(now);
  serviceGroup(now);
  if (ibStalled(now)) ++stats_.ib_stall_cycles;
}

bool MalecInterface::ibStalled(Cycle now) const {
  return !ib_.hasLoadSpace() || ib_.overCommitted(now + 1);
}

void MalecInterface::drainCompletions(Cycle now, std::vector<SeqNum>& out) {
  const std::size_t before = out.size();
  // lint:allow(hot-alloc: caller-owned completion vector retains its capacity across cycles)
  completions_.drainReady(now, [&out](SeqNum seq) { out.push_back(seq); });
  if (out.size() != before) active_ = true;
}

bool MalecInterface::quiesced() const {
  return ib_.empty() && completions_.empty() && sb_.size() == 0 &&
         !pending_mbe_.has_value();
}

Cycle MalecInterface::quietUntil() const {
  if (active_) return 0;
  // Nothing was selectable, drained or popped this cycle, and the stall
  // test reads only buffer occupancy and arrival cycles, none of which a
  // quiet cycle changes. A load completion or a deferred Input Buffer
  // entry turning ready is the next thing time alone can change.
  return std::min(completions_.nextCycle(), ib_.nextReadyCycle());
}

void MalecInterface::replayQuietCycles(Cycle n) {
  // The quiet cycle left the buffer as it was, so its stall test repeats.
  if (ibStalled(now_)) stats_.ib_stall_cycles += n;
  now_ += n;
}

void MalecInterface::saveState(ckpt::StateWriter& w) const {
  // Every live member in declaration order. The per-cycle scratch buffers
  // (group_scratch_ & co.) are rebuilt from scratch inside serviceGroup()
  // each cycle, so they carry no state across the checkpoint boundary.
  l1_.saveState(w);
  l2_.saveState(w);
  hier_.saveState(w);
  engine_.saveState(w);
  w.u8(wdu_ != nullptr ? 1 : 0);
  if (wdu_) wdu_->saveState(w);
  sb_.saveState(w);
  mb_.saveState(w);
  ib_.saveState(w);
  w.u8(pending_mbe_.has_value() ? 1 : 0);
  if (pending_mbe_.has_value()) lsq::MergeBuffer::saveEntry(w, *pending_mbe_);
  completions_.saveState(w);
  for (const auto field : kInterfaceCounterFields) w.u64(stats_.*field);
  w.u64(now_);
  w.u64(window_accesses_);
  w.u64(window_misses_);
  w.u64(window_lookups_);
  w.u64(window_known_);
  w.u64(bypass_windows_);
  w.u32(high_miss_windows_);
}

void MalecInterface::loadState(ckpt::StateReader& r) {
  l1_.loadState(r);
  l2_.loadState(r);
  hier_.loadState(r);
  engine_.loadState(r);
  const bool has_wdu = r.u8() != 0;
  MALEC_CHECK_MSG(has_wdu == (wdu_ != nullptr),
                  "checkpoint disagrees with this configuration about the "
                  "WDU — config mismatch");
  if (wdu_) wdu_->loadState(r);
  sb_.loadState(r);
  mb_.loadState(r);
  ib_.loadState(r);
  if (r.u8() != 0) {
    pending_mbe_ = lsq::MergeBuffer::loadEntry(r);
  } else {
    pending_mbe_.reset();
  }
  completions_.loadState(r);
  for (const auto field : kInterfaceCounterFields) stats_.*field = r.u64();
  now_ = r.u64();
  window_accesses_ = r.u64();
  window_misses_ = r.u64();
  window_lookups_ = r.u64();
  window_known_ = r.u64();
  bypass_windows_ = r.u64();
  high_miss_windows_ = r.u32();
}

}  // namespace malec::core
