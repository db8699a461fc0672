#include "cpu/core_model.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "ckpt/state_io.h"
#include "common/check.h"

namespace malec::cpu {

// kCoreScaledCounterFields lists every CoreStats field except cycles and
// instructions (derived separately by runOne's fold); this trips when a
// field is added to the struct but not the listing, or vice versa.
static_assert(sizeof(CoreStats) ==
                  (std::size(kCoreScaledCounterFields) + 2) *
                      sizeof(std::uint64_t),
              "kCoreScaledCounterFields is out of sync with CoreStats");

namespace {

/// The ROB ring's slot count: the smallest power of two holding `entries`.
std::size_t ringSlots(std::uint32_t entries) {
  std::size_t n = 1;
  while (n < entries) n <<= 1;
  return n;
}

}  // namespace

CoreModel::CoreModel(const core::SystemConfig& sys,
                     const core::InterfaceConfig& ifc,
                     trace::TraceSource& src, core::MemInterface& mem)
    : sys_(sys),
      ifc_cfg_(ifc),
      src_(src),
      mem_(mem),
      lq_(sys.lq_entries),
      rob_slots_(ringSlots(sys.rob_entries)),
      rob_mask_(rob_slots_.size() - 1),
      ready_exec_(sys.rob_entries),
      ready_loads_(sys.rob_entries),
      store_order_(sys.rob_entries) {
  // A WakeLink holds a slot index and one more bit.
  MALEC_CHECK_MSG(rob_slots_.size() <= (std::size_t{1} << 31),
                  "ROB too large for its wakeup links");
}

bool CoreModel::inRob(SeqNum seq) const {
  // A seq below the head wraps to a huge offset.
  return seq - head_seq_ < rob_size_;
}

CoreModel::RobEntry& CoreModel::entry(SeqNum seq) {
  MALEC_DCHECK(inRob(seq));
  return rob_slots_[seq & rob_mask_];
}

const CoreModel::RobEntry& CoreModel::slot(std::size_t logical) const {
  MALEC_DCHECK(logical < rob_size_);
  return rob_slots_[(head_seq_ + logical) & rob_mask_];
}

void CoreModel::addWaiter(RobEntry& producer, SeqNum dependent,
                          unsigned link) {
  const auto node =
      static_cast<WakeLink>(((dependent & rob_mask_) << 1) | link);
  if (producer.waiters == 0) {
    producer.first_waiter = node;
  } else {
    const WakeLink tail = producer.last_waiter;
    rob_slots_[tail >> 1].next_waiter[tail & 1] = node;
  }
  producer.last_waiter = node;
  ++producer.waiters;
}

void CoreModel::enqueueReady(const RobEntry& e) {
  MALEC_DCHECK(e.pending_deps == 0);
  const SeqNum seq = e.instr.seq;
  switch (e.instr.kind) {
    case trace::InstrKind::kOther:
      // lint:allow(hot-alloc: FixedRing::push_back writes into a preallocated slab — no allocation)
      ready_exec_.push_back(seq);
      break;
    case trace::InstrKind::kLoad:
      // lint:allow(hot-alloc: FixedRing::push_back writes into a preallocated slab — no allocation)
      ready_loads_.push_back(seq);
      break;
    case trace::InstrKind::kStore:
      // Stores wait in store_order_ (program order); readiness is checked
      // there via pending_deps == 0.
      break;
  }
}

void CoreModel::markCompleted(SeqNum seq) {
  RobEntry& e = entry(seq);
  if (e.completed) return;
  e.completed = true;
  // Dependents are younger than their producer and commit in order after
  // it, so every one is still in the ROB.
  WakeLink node = e.first_waiter;
  for (std::uint32_t n = e.waiters; n > 0; --n) {
    RobEntry& d = rob_slots_[node >> 1];
    node = d.next_waiter[node & 1];
    MALEC_DCHECK(d.pending_deps > 0);
    if (--d.pending_deps == 0) enqueueReady(d);
  }
  e.waiters = 0;
}

void CoreModel::doCommit() {
  std::uint32_t committed = 0;
  while (committed < sys_.commit_width && rob_size_ > 0) {
    RobEntry& head = entry(head_seq_);
    if (head.instr.isStore()) {
      if (!head.agu_done) break;  // store not yet buffered
      mem_.notifyStoreCommit(head.instr.seq);
    } else if (!head.completed) {
      break;
    }
    if (head.instr.isLoad()) lq_.release(head.instr.seq);
    // A store's dependents (if any) were woken at submit; make sure the
    // completion bookkeeping is consistent before retiring.
    if (!head.completed) markCompleted(head.instr.seq);
    --rob_size_;
    ++head_seq_;
    ++stats_.instructions;
    ++committed;
    active_ = true;
  }
}

void CoreModel::doExecute() {
  // Non-memory instructions: single-cycle execution, issue-width limited.
  std::uint32_t issued = 0;
  while (issued < sys_.issue_width && !ready_exec_.empty()) {
    const SeqNum seq = ready_exec_.front();
    ready_exec_.pop_front();
    active_ = true;
    if (!inRob(seq)) continue;
    exec_events_.push(now_ + 1, seq);
    ++issued;
  }
}

void CoreModel::doAgu() {
  // Loads claim the load-only units plus shared ld/st units; stores use
  // store-only units plus whatever shared units remain (loads are the
  // latency-critical class).
  std::uint32_t shared = ifc_cfg_.agu_load_store;
  std::uint32_t load_units = ifc_cfg_.agu_load_only;
  std::uint32_t store_units = ifc_cfg_.agu_store_only;

  while ((load_units > 0 || shared > 0) && !ready_loads_.empty()) {
    const SeqNum seq = ready_loads_.front();
    if (!mem_.canAcceptLoad()) {
      ++stats_.agu_stall_events;
      break;
    }
    RobEntry& e = entry(seq);
    core::MemOp op{e.instr.seq, true, e.instr.vaddr, e.instr.size};
    const bool ok = mem_.submit(op);
    MALEC_CHECK(ok);
    e.agu_done = true;
    ready_loads_.pop_front();
    active_ = true;
    if (load_units > 0) {
      --load_units;
    } else {
      --shared;
    }
  }

  while ((store_units > 0 || shared > 0) && !store_order_.empty()) {
    const SeqNum seq = store_order_.front();
    if (!inRob(seq)) {
      store_order_.pop_front();
      active_ = true;
      continue;
    }
    RobEntry& e = entry(seq);
    if (e.pending_deps != 0) break;  // oldest store not ready: keep order
    if (!mem_.canAcceptStore()) {
      ++stats_.agu_stall_events;
      break;
    }
    core::MemOp op{e.instr.seq, false, e.instr.vaddr, e.instr.size};
    const bool ok = mem_.submit(op);
    MALEC_CHECK(ok);
    e.agu_done = true;
    // Dependents of a store (rare register forwarding) wake at submit.
    markCompleted(seq);
    store_order_.pop_front();
    active_ = true;
    if (store_units > 0) {
      --store_units;
    } else {
      --shared;
    }
  }
}

void CoreModel::doDispatch() {
  std::uint32_t dispatched = 0;
  bool stalled = false;
  while (dispatched < sys_.fetch_width && !trace_done_) {
    if (rob_size_ >= sys_.rob_entries) {
      ++stats_.rob_full_cycles;
      stalled = true;
      break;
    }
    trace::InstrRecord r;
    active_ = true;  // a pull consumes the record or ends the trace
    if (!src_.next(r)) {
      trace_done_ = true;
      break;
    }
    if (r.isLoad() && lq_.full()) {
      // Put the record back conceptually: we cannot, so we buffer it in a
      // one-slot staging area instead.
      staged_ = r;
      has_staged_ = true;
      ++stats_.lq_stall_cycles;
      stalled = true;
      break;
    }
    dispatchRecord(r);
    ++dispatched;
  }
  if (stalled) ++stats_.dispatch_stall_cycles;
}

void CoreModel::setCheckpointHook(std::uint64_t every,
                                  std::function<void()> cb) {
  MALEC_CHECK_MSG(every > 0, "checkpoint interval must be > 0");
  ckpt_every_ = every;
  ckpt_next_ = stats_.instructions + every;
  ckpt_cb_ = std::move(cb);
}

CoreStats CoreModel::run(Cycle max_cycles, Cycle start_cycle) {
  if (resumed_) {
    // Continuing a restored pipeline: the clock, base and statistics all
    // came from the checkpoint — the caller's start_cycle is meaningless.
    resumed_ = false;
  } else {
    now_ = start_cycle;
    run_base_ = start_cycle;
  }
  const Cycle end = max_cycles == 0 ? kNever : run_base_ + max_cycles;
  while (true) {
    active_ = false;
    const StallCounts stalls = stallCounts();
    mem_.beginCycle(now_);

    // 1. Collect completions (loads from the interface, ALU events).
    completion_buf_.clear();
    mem_.drainCompletions(now_, completion_buf_);
    if (!completion_buf_.empty()) active_ = true;
    for (SeqNum seq : completion_buf_)
      if (inRob(seq)) markCompleted(seq);
    exec_events_.drainReady(now_, [this](SeqNum seq) {
      active_ = true;
      if (inRob(seq)) markCompleted(seq);
    });

    // 2. Retire.
    doCommit();
    // 3. Execute ALU ops; compute addresses and talk to the interface.
    doExecute();
    doAgu();
    // 4. Bring in new work (staged record first).
    if (has_staged_) {
      if (rob_size_ < sys_.rob_entries &&
          !(staged_.isLoad() && lq_.full())) {
        dispatchRecord(staged_);
        has_staged_ = false;
        active_ = true;
      } else {
        ++stats_.dispatch_stall_cycles;
      }
    }
    if (!has_staged_) doDispatch();

    // 5. The interface performs this cycle's translation/arbitration/L1.
    mem_.endCycle(now_);

    ++executed_cycles_;
    ++now_;
    if (trace_done_ && !has_staged_ && rob_size_ == 0 && mem_.quiesced())
      break;
    if (!active_) skipQuietCycles(stalls, end);
    if (now_ >= end) break;
    // Checkpoint AFTER the continue decision: the hook only fires at a
    // boundary the uninterrupted run also crosses into, so a resumed run
    // re-enters the loop exactly like the original would have. (It never
    // fires after a quiet cycle: only commits advance the count.)
    if (ckpt_every_ != 0 && stats_.instructions >= ckpt_next_) {
      while (ckpt_next_ <= stats_.instructions) ckpt_next_ += ckpt_every_;
      ckpt_cb_();
    }
  }
  stats_.cycles = now_ - run_base_;
  return stats_;
}

void CoreModel::skipQuietCycles(const StallCounts& before, Cycle end) {
  // Nothing but stall counters changed, so every cycle up to the next
  // timed event — an ALU result, a load completion, a deferred Input
  // Buffer entry turning ready — would repeat the one that just ended.
  const Cycle wake =
      std::min({exec_events_.nextCycle(), mem_.quietUntil(), end});
  // With no event pending and no cycle bound, nothing could ever change
  // again: stepping would spin forever.
  MALEC_CHECK_MSG(wake != kNever,
                  "run loop deadlocked: quiet with no timed event pending");
  if (wake <= now_) return;
  const Cycle n = wake - now_;
  stats_.dispatch_stall_cycles +=
      n * (stats_.dispatch_stall_cycles - before.dispatch);
  stats_.rob_full_cycles += n * (stats_.rob_full_cycles - before.rob_full);
  stats_.agu_stall_events += n * (stats_.agu_stall_events - before.agu);
  mem_.replayQuietCycles(n);
  now_ = wake;
}

namespace {

void saveRecord(ckpt::StateWriter& w, const trace::InstrRecord& r) {
  w.u64(r.seq);
  w.u8(static_cast<std::uint8_t>(r.kind));
  w.u64(r.vaddr);
  w.u8(r.size);
  w.u32(r.dep_distance);
  w.u32(r.addr_dep_distance);
}

void loadRecord(ckpt::StateReader& r, trace::InstrRecord& out) {
  out.seq = r.u64();
  out.kind = static_cast<trace::InstrKind>(r.u8());
  out.vaddr = r.u64();
  out.size = r.u8();
  out.dep_distance = r.u32();
  out.addr_dep_distance = r.u32();
}

/// Read a queue length and bounds-check it against the restoring ring's
/// capacity (a hostile or mismatched checkpoint must hard-error, not
/// overflow the slab).
std::uint64_t readBounded(ckpt::StateReader& r,
                          const common::FixedRing<SeqNum>& ring) {
  const std::uint64_t n = r.u64();
  MALEC_CHECK_MSG(n <= ring.capacity(),
                  "queue checkpoint exceeds this capacity");
  return n;
}

}  // namespace

void CoreModel::saveState(ckpt::StateWriter& w) const {
  w.u64(head_seq_);
  w.u64(rob_size_);
  for (std::size_t i = 0; i < rob_size_; ++i) {
    const RobEntry& e = slot(i);
    saveRecord(w, e.instr);
    w.u8(e.pending_deps);
    w.u8(static_cast<std::uint8_t>((e.agu_done ? 1 : 0) |
                                   (e.completed ? 2 : 0)));
  }
  w.u8(trace_done_ ? 1 : 0);
  w.u64(now_);
  w.u64(run_base_);
  w.u8(has_staged_ ? 1 : 0);
  if (has_staged_) saveRecord(w, staged_);
  // Dependency lists: walking the ROB head→tail is ascending producer seq.
  // Each list is written in its wakeup order. A producer has a non-empty
  // list only while !completed.
  std::uint64_t producers = 0;
  for (std::size_t i = 0; i < rob_size_; ++i)
    if (slot(i).waiters != 0) ++producers;
  w.u64(producers);
  for (std::size_t i = 0; i < rob_size_; ++i) {
    const RobEntry& e = slot(i);
    if (e.waiters == 0) continue;
    MALEC_DCHECK(!e.completed);
    w.u64(e.instr.seq);
    w.u64(e.waiters);
    WakeLink node = e.first_waiter;
    for (std::uint32_t n = 0; n < e.waiters; ++n) {
      const RobEntry& dependent = rob_slots_[node >> 1];
      w.u64(dependent.instr.seq);
      node = dependent.next_waiter[node & 1];
    }
  }
  w.u64(ready_exec_.size());
  for (std::size_t i = 0; i < ready_exec_.size(); ++i) w.u64(ready_exec_[i]);
  w.u64(ready_loads_.size());
  for (std::size_t i = 0; i < ready_loads_.size(); ++i) w.u64(ready_loads_[i]);
  w.u64(store_order_.size());
  for (std::size_t i = 0; i < store_order_.size(); ++i) w.u64(store_order_[i]);
  exec_events_.saveState(w);
  lq_.saveState(w);
  w.u64(stats_.cycles);
  w.u64(stats_.instructions);
  for (const auto field : kCoreScaledCounterFields) w.u64(stats_.*field);
}

// lint:allow(ckpt-symmetry: readBounded() and r.count() each consume exactly the one u64 length saveState writes inline for a ready ring or dependency list — lexically unpairable, runtime matrix pins the identity)
void CoreModel::loadState(ckpt::StateReader& r) {
  head_seq_ = r.u64();
  const std::uint64_t rob_n = r.u64();
  MALEC_CHECK_MSG(rob_n <= sys_.rob_entries,
                  "ROB checkpoint exceeds this capacity");
  rob_size_ = static_cast<std::size_t>(rob_n);
  for (std::uint64_t i = 0; i < rob_n; ++i) {
    RobEntry& e = entry(head_seq_ + i);
    loadRecord(r, e.instr);
    MALEC_CHECK_MSG(e.instr.seq == head_seq_ + i,
                    "ROB checkpoint entries are out of sequence");
    e.pending_deps = r.u8();
    const std::uint8_t f = r.u8();
    e.agu_done = (f & 1) != 0;
    e.completed = (f & 2) != 0;
    e.waiters = 0;
  }
  trace_done_ = r.u8() != 0;
  now_ = r.u64();
  run_base_ = r.u64();
  has_staged_ = r.u8() != 0;
  if (has_staged_) loadRecord(r, staged_);
  // The wakeup lists are intrusive: a bad dependent would send
  // markCompleted through foreign slots, so every one is checked. A
  // dependent waits on at most two producers (data and address), has one
  // link per producer, and pending_deps counts the lists it is on.
  const std::uint64_t producers = r.u64();
  std::vector<std::uint8_t> links(rob_slots_.size(), 0);
  for (std::uint64_t i = 0; i < producers; ++i) {
    const SeqNum seq = r.u64();
    MALEC_CHECK_MSG(inRob(seq), "dependency producer outside the ROB");
    RobEntry& producer = entry(seq);
    MALEC_CHECK_MSG(!producer.completed,
                    "checkpoint lists dependents under a completed producer");
    for (std::uint64_t n = r.count(sizeof(SeqNum)); n > 0; --n) {
      const SeqNum dependent = r.u64();
      MALEC_CHECK_MSG(inRob(dependent),
                      "checkpoint dependency list names a dependent outside "
                      "the ROB");
      MALEC_CHECK_MSG(dependent > seq,
                      "checkpoint dependency list names a dependent that is "
                      "not younger than its producer");
      std::uint8_t& used = links[dependent & rob_mask_];
      MALEC_CHECK_MSG(used < 2,
                      "checkpoint lists a dependent under three producers");
      addWaiter(producer, dependent, used++);
    }
  }
  for (std::size_t i = 0; i < rob_size_; ++i)
    MALEC_CHECK_MSG(slot(i).pending_deps ==
                        links[(head_seq_ + i) & rob_mask_],
                    "checkpoint dependency count disagrees with the lists "
                    "naming the dependent");
  ready_exec_.clear();
  for (std::uint64_t i = 0, n = readBounded(r, ready_exec_); i < n; ++i)
    ready_exec_.push_back(r.u64());
  ready_loads_.clear();
  for (std::uint64_t i = 0, n = readBounded(r, ready_loads_); i < n; ++i)
    ready_loads_.push_back(r.u64());
  store_order_.clear();
  for (std::uint64_t i = 0, n = readBounded(r, store_order_); i < n; ++i)
    store_order_.push_back(r.u64());
  exec_events_.loadState(r);
  lq_.loadState(r);
  stats_.cycles = r.u64();
  stats_.instructions = r.u64();
  for (const auto field : kCoreScaledCounterFields) stats_.*field = r.u64();
  ckpt_next_ = stats_.instructions + ckpt_every_;
  resumed_ = true;
}

void CoreModel::dispatchRecord(const trace::InstrRecord& r) {
  // The ring maps a seq to its slot, so the stream must number records
  // consecutively from the first one the core saw.
  MALEC_CHECK_MSG(r.seq == head_seq_ + rob_size_,
                  "instruction stream out of sequence: record seqs must be "
                  "0, 1, 2, ... in stream order");
  MALEC_DCHECK(rob_size_ < sys_.rob_entries);
  ++rob_size_;
  RobEntry& e = entry(r.seq);
  e.instr = r;
  e.pending_deps = 0;
  e.agu_done = false;
  e.completed = false;
  e.waiters = 0;
  if (r.isLoad()) {
    lq_.allocate(r.seq);
    ++stats_.loads;
  } else if (r.isStore()) {
    ++stats_.stores;
  }

  // Register dependencies: data input (link 0) and, for memory ops,
  // address input (link 1).
  auto addDep = [&](std::uint32_t distance, unsigned link) {
    if (distance == 0 || distance > r.seq) return;
    const SeqNum target = r.seq - distance;
    if (!inRob(target)) return;           // producer already retired
    RobEntry& t = entry(target);
    if (t.completed) return;              // producer done
    addWaiter(t, r.seq, link);
    ++e.pending_deps;
  };
  addDep(r.dep_distance, 0);
  if (r.isMem() && r.addr_dep_distance != r.dep_distance)
    addDep(r.addr_dep_distance, 1);

  // lint:allow(hot-alloc: FixedRing::push_back writes into a preallocated slab — no allocation)
  if (r.isStore()) store_order_.push_back(r.seq);
  if (e.pending_deps == 0) enqueueReady(e);
}

}  // namespace malec::cpu
