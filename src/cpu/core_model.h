// Out-of-order superscalar core model (paper Table II: 168-entry ROB,
// 6-wide fetch/dispatch, 8-wide issue, 6-wide commit, 40-entry LQ).
//
// This is the gem5-O3-equivalent timing substrate: instructions stream in
// from a TraceSource, dispatch into the ROB, execute when their register
// dependencies resolve (event-driven wakeup, no per-cycle ROB scans),
// compute memory addresses on a configurable set of address-computation
// units (Table I) and retire in order. Loads complete when the memory
// interface delivers their data; stores retire once buffered and write the
// cache after commit through the SB/MB path inside the interface.
//
// Branch prediction and fetch effects are abstracted away: the performance
// differences the paper studies come from memory-port structure, load
// latency and dependency-limited ILP, which this model captures.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/fixed_ring.h"
#include "common/types.h"
#include "core/event_queue.h"
#include "core/interface_config.h"
#include "core/mem_interface.h"
#include "lsq/load_queue.h"
#include "trace/record.h"

namespace malec::ckpt {
class StateReader;
class StateWriter;
}  // namespace malec::ckpt

namespace malec::cpu {

struct CoreStats {
  Cycle cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t dispatch_stall_cycles = 0;
  std::uint64_t agu_stall_events = 0;
  std::uint64_t lq_stall_cycles = 0;
  std::uint64_t rob_full_cycles = 0;

  [[nodiscard]] double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) /
                             static_cast<double>(cycles);
  }
};

/// The CoreStats counters that scale linearly with the instruction window
/// — what every run folds with its windows' weights (cycles/instructions
/// are derived separately by the fold). A new counter MUST be added here
/// too — a static_assert in core_model.cpp pins the listing against
/// sizeof(CoreStats), so a field added to one but not the other fails the
/// build instead of silently reporting 0.
inline constexpr std::uint64_t CoreStats::*kCoreScaledCounterFields[] = {
    &CoreStats::loads,
    &CoreStats::stores,
    &CoreStats::dispatch_stall_cycles,
    &CoreStats::agu_stall_events,
    &CoreStats::lq_stall_cycles,
    &CoreStats::rob_full_cycles,
};

class CoreModel {
 public:
  CoreModel(const core::SystemConfig& sys, const core::InterfaceConfig& ifc,
            trace::TraceSource& src, core::MemInterface& mem);

  /// Run until the trace is exhausted and the pipeline drains.
  /// `max_cycles` (0 = unlimited) is a safety bound. `start_cycle` sets the
  /// clock the first cycle runs at — segment replays over a shared memory
  /// interface must continue its timeline, not restart it: the interface
  /// keeps absolute-cycle state (miss ready times, port busy windows), and
  /// a clock jumping back to 0 would stall a fresh segment behind stale
  /// "busy until" timestamps. Reported cycles stay relative to the start.
  ///
  /// The loop is wake-driven: after a quiet cycle — one in which neither
  /// the core nor the interface changed any state except per-cycle stall
  /// counters — the clock jumps to the next timed event and the skipped
  /// cycles' stall counts are added in one step. Results are identical to
  /// stepping every cycle (docs/ARCHITECTURE.md, "The run-loop hot path").
  CoreStats run(Cycle max_cycles = 0, Cycle start_cycle = 0);

  /// Cycles the loop actually stepped, over every run() call on this core
  /// (skipped quiet cycles excluded) — a host-side work counter, not a
  /// simulated statistic.
  [[nodiscard]] std::uint64_t executedCycles() const {
    return executed_cycles_;
  }

  /// Invoke `cb` at the first end-of-cycle boundary at which at least
  /// `every` further instructions have retired (then re-arm `every`
  /// later, and so on). The callback runs at a consistent instruction
  /// boundary — commit done, interface cycle finished — which is where
  /// the run layer snapshots the full simulation state. The hook never
  /// fires on the run's final cycle: a checkpoint is only taken where
  /// continuing is possible, so a resumed run re-enters the cycle loop
  /// exactly like the uninterrupted run did.
  void setCheckpointHook(std::uint64_t every, std::function<void()> cb);

  /// Checkpoint/restore of the whole pipeline: ROB, staging slot, ready
  /// queues, store order, dependency graph, in-flight execution events,
  /// LQ occupancy, clock and statistics. After loadState, the next run()
  /// call continues the restored cycle (its start_cycle argument is
  /// ignored) — bit-identical to the run that never stopped.
  void saveState(ckpt::StateWriter& w) const;
  void loadState(ckpt::StateReader& r);

 private:
  /// A dependent's place in one producer's wakeup list: the dependent's
  /// ROB slot shifted left by one, with the low bit naming which of its
  /// two links continues that list (0 in its data producer's list, 1 in
  /// its address producer's).
  using WakeLink = std::uint32_t;

  struct RobEntry {
    trace::InstrRecord instr;
    std::uint8_t pending_deps = 0;
    bool agu_done = false;   ///< mem op handed to the interface
    bool completed = false;  ///< result available / retire-eligible
    /// Intrusive FIFO of this producer's waiting dependents, in the order
    /// they dispatched (the wakeup order). Non-empty only while
    /// !completed; markCompleted drains it.
    std::uint32_t waiters = 0;
    WakeLink first_waiter = 0;
    WakeLink last_waiter = 0;
    /// This entry's successors in the lists of the (at most two)
    /// producers it waits on.
    WakeLink next_waiter[2] = {0, 0};
  };

  [[nodiscard]] bool inRob(SeqNum seq) const;
  [[nodiscard]] RobEntry& entry(SeqNum seq);
  /// ROB entry by logical position: 0 = oldest (head) — ascending seq.
  [[nodiscard]] const RobEntry& slot(std::size_t logical) const;
  /// Append `dependent` to `producer`'s wakeup list through the
  /// dependent's link `link` (0 or 1).
  void addWaiter(RobEntry& producer, SeqNum dependent, unsigned link);
  void markCompleted(SeqNum seq);
  void enqueueReady(const RobEntry& e);
  void doCommit();
  void doExecute();
  void doAgu();
  void doDispatch();
  void dispatchRecord(const trace::InstrRecord& r);

  /// The counters a quiet cycle may still advance.
  struct StallCounts {
    std::uint64_t dispatch;
    std::uint64_t rob_full;
    std::uint64_t agu;
  };
  [[nodiscard]] StallCounts stallCounts() const {
    return {stats_.dispatch_stall_cycles, stats_.rob_full_cycles,
            stats_.agu_stall_events};
  }
  /// After a quiet cycle: jump the clock to the next timed event (capped
  /// at `end`) and replay the stall counts that cycle added, `before`
  /// being the counts at its start.
  void skipQuietCycles(const StallCounts& before, Cycle end);

  core::SystemConfig sys_;  // lint:no-state(config; restore binds by fingerprint)
  core::InterfaceConfig ifc_cfg_;  // lint:no-state(config)
  trace::TraceSource& src_;  // lint:no-state(wiring ref; checkpoints itself)
  core::MemInterface& mem_;  // lint:no-state(wiring ref; checkpoints itself)
  lsq::LoadQueue lq_;

  /// Arena-allocated ROB: a power-of-two ring of slots, at least
  /// sys_.rob_entries of them. In-flight seqs are consecutive
  /// [head_seq_, head_seq_ + rob_size_), so seq & rob_mask_ is a seq's
  /// slot — no per-instruction allocation, no hashing, no wrap arithmetic.
  // lint:no-state(serialized via slot() in logical head-first order)
  std::vector<RobEntry> rob_slots_;
  std::size_t rob_mask_;  // lint:no-state(config; rob_slots_.size() - 1)
  std::size_t rob_size_ = 0;
  SeqNum head_seq_ = 0;  ///< seq of the oldest ROB entry
  bool trace_done_ = false;
  Cycle now_ = 0;
  /// Clock value the (original) run started at — reported cycles and the
  /// max_cycles bound stay relative to it across checkpoint/resume.
  Cycle run_base_ = 0;
  /// Set by loadState: the next run() continues the restored timeline
  /// instead of resetting the clock to its start_cycle argument.
  bool resumed_ = false;  // lint:no-state(restore-side flag set by loadState)
  std::uint64_t ckpt_every_ = 0;  // lint:no-state(hook re-armed by run layer)
  std::uint64_t ckpt_next_ = 0;   // lint:no-state(hook re-armed by run layer)
  std::function<void()> ckpt_cb_;  // lint:no-state(callback re-armed by run layer)
  /// One-slot staging area for a record pulled from the trace that could
  /// not dispatch (LQ full) — re-tried first next cycle.
  trace::InstrRecord staged_{};
  bool has_staged_ = false;

  // Ready/ordering queues are bounded by the ROB (an instruction is queued
  // at most once and leaves the queue no later than it leaves the ROB), so
  // fixed rings sized to the ROB replace the deques.
  common::FixedRing<SeqNum> ready_exec_;   ///< non-mem, deps resolved
  common::FixedRing<SeqNum> ready_loads_;  ///< loads, deps resolved
  common::FixedRing<SeqNum> store_order_;  ///< stores in program order
  core::EventQueue exec_events_;           ///< (ready cycle, seq) wakeups
  std::vector<SeqNum> completion_buf_;  // lint:no-state(per-cycle scratch)

  /// Set by every stage that changes state this cycle; a cycle that ends
  /// with it clear is quiet.
  bool active_ = false;  // lint:no-state(per-cycle flag; reset at the top of every cycle)
  std::uint64_t executed_cycles_ = 0;  // lint:no-state(host-side work counter; not a simulated statistic)

  CoreStats stats_;
};

}  // namespace malec::cpu
