#include "sim/experiment.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <thread>

#include <cmath>
#include <condition_variable>
#include <iterator>
#include <mutex>

#include "ckpt/state_io.h"
#include "common/binio.h"
#include "common/check.h"
#include "energy/energy_account.h"
#include "phase/sample_plan.h"
#include "sim/presets.h"
#include "sim/registry.h"
#include "sim/structures.h"
#include "trace/run_ahead.h"
#include "trace/stream_tape.h"
#include "trace/synth_generator.h"
#include "trace/trace_io.h"

namespace malec::sim {

namespace {

/// The generator of `rc`'s synthetic stream. A run, its row's tape and a
/// capture all draw the stream from here, so all three hold the same
/// records.
trace::SyntheticTraceGenerator generatorFor(const RunConfig& rc) {
  return {rc.workload, rc.system.layout, rc.instructions, rc.seed};
}

/// The trace source behind a run: a synthetic generator for profile
/// workloads (none when the run reads its row's tape) or a reader over a
/// capture, the concrete objects the checkpoint layer saves and restores.
/// `instructions` is the stream's length: the generator's budget, or the
/// capture's record count under the instruction cap.
struct ResolvedSource {
  std::unique_ptr<trace::TraceReader> reader;
  std::unique_ptr<trace::SyntheticTraceGenerator> synth;
  std::uint64_t instructions = 0;
};

/// Abort unless the trace's captured AddressLayout matches the layout this
/// run simulates.
void checkReplayLayout(const trace::TraceReader& rd, const RunConfig& rc) {
  const auto& p = rd.layoutParams();
  const AddressLayout& l = rc.system.layout;
  const bool match =
      p.addr_bits == l.addrBits() && p.page_bytes == l.pageBytes() &&
      p.line_bytes == l.lineBytes() &&
      p.sub_block_bytes == l.subBlockBytes() && p.l1_bytes == l.l1Bytes() &&
      p.l1_assoc == l.l1Assoc() && p.l1_banks == l.l1Banks();
  if (!match) {
    const std::string msg =
        "trace '" + rc.workload.trace_path +
        "' was captured under a different AddressLayout than the one this "
        "run simulates — replaying it would decompose every address "
        "differently";
    MALEC_CHECK_MSG(false, msg.c_str());
  }
}

ResolvedSource makeTraceSource(const RunConfig& rc, bool taped) {
  ResolvedSource rs;
  if (!rc.workload.isTrace()) {
    if (!taped)
      rs.synth =
          std::make_unique<trace::SyntheticTraceGenerator>(generatorFor(rc));
    rs.instructions = rc.instructions;
    return rs;
  }
  rs.reader = std::make_unique<trace::TraceReader>(rc.workload.trace_path);
  if (!rs.reader->ok()) MALEC_CHECK_MSG(false, rs.reader->error().c_str());
  checkReplayLayout(*rs.reader, rc);
  const std::uint64_t total = rs.reader->total();
  rs.instructions =
      rc.instructions == 0 ? total : std::min(rc.instructions, total);
  return rs;
}

/// Serves records [start, end) of a shared reader standing at `start`, with
/// seq rebased by `start` — a CoreModel's ROB indexing assumes the first
/// dispatched record's seq matches its (zero-initialised) head pointer.
/// Dependency distances reaching back past the window start exceed the
/// rebased seq and are dropped by the core's addDep bound check, which is
/// exactly the sampling approximation we want. The reader's position is
/// the only position: a checkpoint restore that repositions the reader
/// repositions the window with it.
class SegmentSource final : public trace::TraceSource {
 public:
  SegmentSource(trace::TraceReader& rd, std::uint64_t start,
                std::uint64_t end)
      : rd_(rd), start_(start), end_(end) {}

  bool next(trace::InstrRecord& out) override {
    if (rd_.consumed() >= end_ || !rd_.next(out)) return false;
    out.seq -= start_;
    return true;
  }
  void reset() override {
    MALEC_CHECK_MSG(false, "segment sources cannot rewind a shared reader");
  }

 private:
  trace::TraceReader& rd_;
  std::uint64_t start_;
  std::uint64_t end_;
};

// --- checkpoint orchestration (.mckpt, src/ckpt) ----------------------------
//
// A checkpoint binds to one exact run: the full interface + system
// configuration, seed and instruction budget are fingerprinted into the
// meta section, the workload by its statistical profile (synthetic) or by
// the trace's record count + checksum (like `.mplan`). Restoring under
// anything else is a hard error — a checkpoint silently applied to a
// different run would produce plausible-looking nonsense.

/// Canonical little-endian byte stream of a value sequence, FNV-1a hashed.
class BindingHasher {
 public:
  void u64(std::uint64_t v) {
    std::uint8_t b[8];
    binio::put64(b, v);
    h_ = binio::fnv1a(h_, b, sizeof b);
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    h_ = binio::fnv1a(h_, reinterpret_cast<const std::uint8_t*>(s.data()),
                      s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = binio::kFnvOffset;
};

void hashLayout(BindingHasher& h, const AddressLayout& l) {
  h.u64(l.addrBits());
  h.u64(l.pageBytes());
  h.u64(l.lineBytes());
  h.u64(l.subBlockBytes());
  h.u64(l.l1Bytes());
  h.u64(l.l1Assoc());
  h.u64(l.l1Banks());
}

void hashProfile(BindingHasher& h, const trace::WorkloadProfile& wl) {
  // Every statistical parameter the generator draws from. The trace and
  // plan paths are deliberately NOT hashed — files may move; trace-backed
  // runs bind by record count + checksum instead.
  h.f64(wl.mem_fraction);
  h.f64(wl.load_share);
  h.u64(wl.streams);
  h.f64(wl.p_switch_stream);
  h.f64(wl.p_same_page);
  h.f64(wl.p_sequential);
  h.u64(wl.stride_bytes);
  h.f64(wl.p_same_line);
  h.u64(wl.ws_pages);
  h.f64(wl.hot_fraction);
  h.u64(wl.hot_pages);
  h.f64(wl.p_stream_advance);
  h.f64(wl.dep_on_load);
  h.u64(wl.dep_distance_cap);
  h.f64(wl.addr_dep_on_load);
  h.f64(wl.dep_on_prev);
  h.f64(wl.store_p_same_page);
  h.f64(wl.store_p_adjacent);
  h.f64(wl.store_near_load);
  h.u64(wl.access_size);
}

/// Fingerprint of everything that shapes a run besides the trace bytes:
/// interface config, system config, seed, budget and the workload's
/// synthetic statistics.
std::uint64_t runBindingHash(const RunConfig& rc) {
  BindingHasher h;
  const core::InterfaceConfig& c = rc.interface_cfg;
  h.str(c.name);
  h.u64(static_cast<std::uint64_t>(c.kind));
  h.u64(c.l1_latency);
  h.u64(c.agu_load_only);
  h.u64(c.agu_load_store);
  h.u64(c.agu_store_only);
  h.u64(c.ib_carry_slots);
  h.u64(c.ib_group_comparators);
  h.u64(c.result_buses);
  h.u64(c.merge_window);
  h.u64(c.subblocked_pair_read ? 1 : 0);
  h.u64(static_cast<std::uint64_t>(c.waydet));
  h.u64(c.wdu_entries);
  h.u64(c.last_entry_feedback ? 1 : 0);
  const core::SystemConfig& s = rc.system;
  hashLayout(h, s.layout);
  h.u64(s.rob_entries);
  h.u64(s.fetch_width);
  h.u64(s.issue_width);
  h.u64(s.commit_width);
  h.u64(s.lq_entries);
  h.u64(s.sb_entries);
  h.u64(s.mb_entries);
  h.u64(s.utlb_entries);
  h.u64(s.tlb_entries);
  h.u64(s.l2_latency);
  h.u64(s.dram_latency);
  h.u64(s.page_walk_latency);
  h.u64(s.mshrs);
  h.f64(s.clock_ghz);
  h.u64(s.seed);
  h.u64(rc.seed);
  h.u64(rc.instructions);
  hashProfile(h, rc.workload);
  return h.value();
}

void writeMetaSection(ckpt::StateWriter& w, const RunConfig& rc,
                      const ResolvedSource& src) {
  w.beginSection("meta");
  w.u64(runBindingHash(rc));
  w.str(rc.workload.name);
  w.u8(rc.workload.isTrace() ? 1 : 0);
  if (src.reader != nullptr) {
    w.u64(src.reader->total());
    w.u64(src.reader->expectedChecksum());
  }
  w.endSection();
}

/// Validate the meta section against `rc` + the freshly-opened source.
/// Aborts with a specific message per mismatch class.
void checkMetaSection(ckpt::StateReader& r, const std::string& path,
                      const RunConfig& rc, const ResolvedSource& src) {
  r.openSection("meta");
  if (r.u64() != runBindingHash(rc)) {
    const std::string msg =
        "checkpoint '" + path +
        "' was taken under a different run configuration (interface/system "
        "parameters, seed, instruction budget or workload statistics) — it "
        "cannot resume this run";
    MALEC_CHECK_MSG(false, msg.c_str());
  }
  const std::string wl_name = r.str();
  if (wl_name != rc.workload.name) {
    const std::string msg = "checkpoint '" + path + "' was taken from "
                            "workload '" + wl_name + "', not '" +
                            rc.workload.name + "'";
    MALEC_CHECK_MSG(false, msg.c_str());
  }
  const bool was_trace = r.u8() != 0;
  MALEC_CHECK_MSG(was_trace == rc.workload.isTrace(),
                  "checkpoint disagrees with this run about the trace "
                  "source kind");
  if (was_trace) {
    const std::uint64_t total = r.u64();
    const std::uint64_t sum = r.u64();
    if (total != src.reader->total() ||
        sum != src.reader->expectedChecksum()) {
      const std::string msg =
          "checkpoint '" + path + "' was taken from a different trace than "
          "'" + rc.workload.trace_path + "' (record count or checksum "
          "mismatch) — a checkpoint never applies across captures";
      MALEC_CHECK_MSG(false, msg.c_str());
    }
  }
  r.endSection();
}

void saveSourceState(ckpt::StateWriter& w, const ResolvedSource& src) {
  w.beginSection("source");
  if (src.reader != nullptr) {
    w.u64(src.reader->consumed());
    w.u64(src.reader->runningChecksum());
  } else {
    src.synth->saveState(w);
  }
  w.endSection();
}

void loadSourceState(ckpt::StateReader& r, ResolvedSource& src) {
  r.openSection("source");
  if (src.reader != nullptr) {
    const std::uint64_t pos = r.u64();
    const std::uint64_t sum = r.u64();
    if (!src.reader->seekTo(pos, sum))
      MALEC_CHECK_MSG(false, src.reader->error().c_str());
  } else {
    src.synth->loadState(r);
  }
  r.endSection();
}

/// Snapshot the complete simulation state into `rc.ckpt_out` — called from
/// the core's end-of-cycle hook, so everything sits at a consistent
/// instruction boundary.
void saveRunState(const RunConfig& rc, const ResolvedSource& src,
                  const RunStack& stack, const cpu::CoreModel& core) {
  ckpt::StateWriter w;
  writeMetaSection(w, rc, src);
  saveSourceState(w, src);
  w.beginSection("core");
  core.saveState(w);
  w.endSection();
  w.beginSection("interface");
  stack.ifc().saveState(w);
  w.endSection();
  w.beginSection("energy");
  stack.account().saveState(w);
  w.endSection();
  std::string err;
  if (!w.writeTo(rc.ckpt_out, err)) MALEC_CHECK_MSG(false, err.c_str());
}

/// Restore `rc.start_ckpt` into the freshly-constructed simulation stack.
void restoreRunState(const RunConfig& rc, ResolvedSource& src,
                     const RunStack& stack, cpu::CoreModel& core) {
  ckpt::StateReader r(rc.start_ckpt);
  if (!r.ok()) MALEC_CHECK_MSG(false, r.error().c_str());
  checkMetaSection(r, rc.start_ckpt, rc, src);
  loadSourceState(r, src);
  r.openSection("core");
  core.loadState(r);
  r.endSection();
  r.openSection("interface");
  stack.ifc().loadState(r);
  r.endSection();
  r.openSection("energy");
  stack.account().loadState(r);
  r.endSection();
}

}  // namespace

RunStack::RunStack(const core::InterfaceConfig& cfg,
                   const core::SystemConfig& sys, energy::EnergyAccount& ea,
                   const InterfaceDecorator& decorate)
    : ea_(ea) {
  defineEnergies(ea, cfg, sys);
  inner_ = makeInterface(cfg, sys, ea);
  if (decorate) decorator_ = decorate(*inner_);
  front_ = decorator_ ? decorator_.get() : inner_.get();
}

namespace {

/// A sampled pick fast-forwards to its warm-up, warms up, then measures; a
/// direct run's one window restores its checkpoint, if any, and measures.
/// ONE interface (caches, TLB, way tables, WDU) lives across the walk, so
/// memory-system state accumulates from window to window the way it would
/// across a full replay; fast-forwarded stretches leave it untouched (the
/// staleness this introduces is the sampling approximation, bounded by the
/// per-pick warm-up that re-primes the hot set). Every interface counter
/// and energy-event count is snapshotted when a measurement window opens
/// and only the window's delta is folded in, so warm-up primes state
/// without entering the estimate; a restore comes after the snapshot, so
/// the restored counts stay in the window. Each window gets a fresh
/// CoreModel, so the pipeline resets at window boundaries exactly like at
/// a SimPoint boundary. A pick folds with its cluster's weight over the
/// instructions it measured, a direct run with weight 1 — every counter is
/// below 2^53, so the fold reproduces it exactly. The fold runs in window
/// order, so repeated and parallel runs are bit-identical.
///
/// A synthetic stream reads `tape` when one is given: its row's stream,
/// recorded once from the same generator (a pool's grid row; see
/// runMatrixParallel). Otherwise it runs its generator ahead on a helper
/// thread (trace::RunAheadSource) when `spare_cpu` says the process has a
/// CPU for it and the run neither writes nor restores a checkpoint: a
/// checkpoint's `source` section must hold the generator at the core's
/// position, not blocks ahead of it. The records, and so every output
/// byte, are the same every way.
RunOutput runWindows(const RunConfig& rc, const InterfaceDecorator& decorate,
                     bool spare_cpu, const trace::StreamTape* tape = nullptr) {
  MALEC_CHECK_MSG(tape == nullptr || (!rc.workload.isTrace() &&
                                      rc.ckpt_out.empty() &&
                                      rc.start_ckpt.empty()),
                  "a tape feeds only a synthetic run without checkpoints");
  MALEC_CHECK_MSG(rc.ckpt_every == 0 || !rc.ckpt_out.empty(),
                  "ckpt_every has nowhere to write — set ckpt_out too");
  MALEC_CHECK_MSG(rc.ckpt_out.empty() || rc.ckpt_every != 0,
                  "a checkpoint output path needs an interval — set "
                  "ckpt_every (--ckpt-every)");
  const bool sampled = rc.workload.isSampled();
  phase::SamplePlan plan;
  if (sampled) {
    MALEC_CHECK_MSG(rc.workload.isTrace(),
                    "a sample plan needs a trace-backed workload — synthetic "
                    "profiles replay in full");
    MALEC_CHECK_MSG(rc.instructions == 0,
                    "sampled replay does not compose with an instruction cap "
                    "(the plan determines what is simulated) — run with "
                    "--instr 0 / MALEC_INSTR unset");
    MALEC_CHECK_MSG(rc.ckpt_out.empty() && rc.start_ckpt.empty(),
                    "sampled replay does not compose with ckpt_out/start_ckpt");
    plan = sampledPlan(rc.workload);
  }

  ResolvedSource src = makeTraceSource(rc, tape != nullptr);
  trace::TraceReader* const rd = src.reader.get();
  // A synthetic window reads the row's tape, the generator run ahead, or
  // the generator itself. The run-ahead source is started before the stack
  // is built, so the first block is ready sooner, and declared after `src`,
  // so it is destroyed before the generator it reads.
  std::optional<trace::TapeReader> taped;
  std::optional<trace::RunAheadSource> ahead;
  trace::TraceSource* synth = src.synth.get();
  if (tape != nullptr)
    synth = &taped.emplace(*tape);
  else if (spare_cpu && src.synth != nullptr && rc.ckpt_out.empty() &&
           rc.start_ckpt.empty())
    synth = &ahead.emplace(*src.synth);
  energy::EnergyAccount ea;
  const RunStack stack(rc.interface_cfg, rc.system, ea, decorate);
  core::MemInterface& ifc = stack.ifc();
  const std::vector<phase::PlanSegment> windows =
      sampled ? plan.segments()
              : std::vector<phase::PlanSegment>{{0, 0, src.instructions}};

  // Folded estimates, accumulated as doubles in window order.
  std::uint64_t instructions = 0;
  double cycles_est = 0.0;
  constexpr std::size_t kNumIfcFields = std::size(core::kInterfaceCounterFields);
  constexpr std::size_t kNumCoreFields = std::size(cpu::kCoreScaledCounterFields);
  std::vector<double> ifc_est(kNumIfcFields, 0.0);
  std::vector<double> core_est(kNumCoreFields, 0.0);
  // The event-id space is fixed once the interface is constructed — the
  // run only counts — so per-window event deltas are plain snapshots.
  std::vector<double> event_est(ea.eventTypes(), 0.0);
  std::vector<std::uint64_t> ev_snap(ea.eventTypes(), 0);

  // One continuous simulated timeline across every window: the shared
  // interface keys busy windows and miss ready times to absolute cycles,
  // so each window's core resumes the clock where the previous one left
  // off instead of restarting at 0 (see CoreModel::run's start_cycle).
  Cycle sim_clock = 0;
  trace::InstrRecord skip;
  for (std::size_t k = 0; k < windows.size(); ++k) {
    const phase::PlanSegment& win = windows[k];
    if (rd != nullptr) {
      // Fast-forward: decode-only, no simulation — this skip is where the
      // wall-clock win over a full replay comes from.
      while (rd->consumed() < win.warm_start && rd->next(skip)) {
      }
      MALEC_CHECK_MSG(rd->consumed() == win.warm_start, rd->error().c_str());
    }
    const std::uint64_t warm = win.start - win.warm_start;
    if (warm > 0) {
      // Warm-up: primes caches/TLB/WDU; the snapshots below remove its
      // counters and energy events.
      SegmentSource wsrc(*rd, win.warm_start, win.start);
      cpu::CoreModel wcore(rc.system, rc.interface_cfg, wsrc, ifc);
      const cpu::CoreStats ws = wcore.run(warm * 60 + 100'000, sim_clock);
      sim_clock += ws.cycles;
      // An under-retired warm-up (reader failure or the safety bound)
      // would silently shift the measurement off its interval.
      MALEC_CHECK_MSG(ws.instructions == warm,
                      "sampled warmup did not retire every instruction");
    }
    const core::InterfaceStats snap = ifc.stats();
    for (energy::EnergyAccount::EventId id = 0; id < ea.eventTypes(); ++id)
      ev_snap[id] = ea.eventCount(id);

    // A capture's window ends at `end` — the instruction cap, for a direct
    // run; a synthetic stream ends at its generator's budget.
    std::optional<SegmentSource> seg;
    if (rd != nullptr) seg.emplace(*rd, win.start, win.end);
    cpu::CoreModel core(rc.system, rc.interface_cfg,
                        seg ? static_cast<trace::TraceSource&>(*seg) : *synth,
                        ifc);
    if (!rc.start_ckpt.empty()) restoreRunState(rc, src, stack, core);
    bool wrote_ckpt = false;
    if (!rc.ckpt_out.empty()) {
      core.setCheckpointHook(
          rc.ckpt_every, [&rc, &src, &stack, &core, &wrote_ckpt] {
            saveRunState(rc, src, stack, core);
            wrote_ckpt = true;
          });
    }

    // Safety bound: no workload should need 60 cycles per instruction.
    const std::uint64_t length = win.end - win.start;
    const cpu::CoreStats cs = core.run(length * 60 + 100'000, sim_clock);
    sim_clock += cs.cycles;

    // A FRESH run that asked for checkpoints but retired fewer instructions
    // than one interval would exit 0 with no file — and the user would only
    // find out at resume time, after the expensive run is gone. (A resumed
    // run legitimately ends without crossing another boundary.)
    if (!rc.ckpt_out.empty() && rc.start_ckpt.empty() && !wrote_ckpt) {
      const std::string msg =
          "checkpoint interval exceeds the run: no checkpoint was written to "
          "'" + rc.ckpt_out + "' — lower ckpt_every below "
          "the instruction budget";
      MALEC_CHECK_MSG(false, msg.c_str());
    }
    if (rd != nullptr) MALEC_CHECK_MSG(rd->ok(), rd->error().c_str());
    // A window that stopped at the safety bound describes a truncated
    // stream: refuse it. (An unbounded synthetic stream, instructions == 0,
    // has nothing to reach.)
    if (cs.instructions < length) {
      const std::string msg =
          "run retired " + std::to_string(cs.instructions) + " of its " +
          std::to_string(length) +
          " instructions before the cycle bound — the pipeline stopped "
          "making progress";
      MALEC_CHECK_MSG(false, msg.c_str());
    }

    // A pick stands for its cluster's instructions, a direct run for its
    // own.
    const std::uint64_t weight =
        sampled ? plan.picks[k].weight_instructions : cs.instructions;
    const double scale = sampled ? static_cast<double>(weight) /
                                       static_cast<double>(cs.instructions)
                                 : 1.0;
    instructions += weight;
    cycles_est += static_cast<double>(cs.cycles) * scale;
    for (std::size_t i = 0; i < kNumCoreFields; ++i)
      core_est[i] +=
          static_cast<double>(cs.*cpu::kCoreScaledCounterFields[i]) * scale;
    const core::InterfaceStats delta = core::statsDelta(ifc.stats(), snap);
    for (std::size_t i = 0; i < kNumIfcFields; ++i)
      ifc_est[i] += static_cast<double>(
                        delta.*core::kInterfaceCounterFields[i]) *
                    scale;
    for (energy::EnergyAccount::EventId id = 0; id < ea.eventTypes(); ++id)
      event_est[id] +=
          static_cast<double>(ea.eventCount(id) - ev_snap[id]) * scale;
  }

  // A capped or sampled replay vouches for the whole file: hash what the
  // walk left unread, so a partial replay is held to the same integrity
  // bar as a full one.
  if (rd != nullptr && !rd->finishChecksum())
    MALEC_CHECK_MSG(false, rd->error().c_str());

  // One internally-consistent output: round the folded counters once, then
  // derive every rate and energy from the rounded values.
  RunOutput out;
  out.benchmark = rc.workload.name;
  out.config = rc.interface_cfg.name;
  out.instructions = instructions;
  out.cycles = static_cast<Cycle>(std::llround(cycles_est));
  out.core.cycles = out.cycles;
  out.core.instructions = out.instructions;
  for (std::size_t i = 0; i < kNumCoreFields; ++i)
    out.core.*cpu::kCoreScaledCounterFields[i] =
        static_cast<std::uint64_t>(std::llround(core_est[i]));
  out.ipc = out.core.ipc();
  for (std::size_t i = 0; i < kNumIfcFields; ++i)
    out.ifc.*core::kInterfaceCounterFields[i] =
        static_cast<std::uint64_t>(std::llround(ifc_est[i]));

  ea.clearCounts();
  for (energy::EnergyAccount::EventId id = 0; id < ea.eventTypes(); ++id)
    ea.count(id, static_cast<std::uint64_t>(std::llround(event_est[id])));
  const double clock_ghz = rc.system.clock_ghz;
  out.dynamic_pj = ea.dynamicPj();
  out.leakage_pj = ea.leakagePj(out.cycles, clock_ghz);
  out.total_pj = out.dynamic_pj + out.leakage_pj;
  out.way_coverage = out.ifc.wayCoverage();
  out.l1_load_miss_rate =
      out.ifc.load_l1_accesses == 0
          ? 0.0
          : static_cast<double>(out.ifc.load_l1_misses) /
                static_cast<double>(out.ifc.load_l1_accesses);
  out.merged_load_fraction =
      out.ifc.loads_submitted == 0
          ? 0.0
          : static_cast<double>(out.ifc.merged_loads) /
                static_cast<double>(out.ifc.loads_submitted);
  out.energy_detail = ea.report(out.cycles, clock_ghz);
  return out;
}

/// CPUs this process may run on: its affinity mask, which `taskset` and
/// cpusets narrow and std::thread::hardware_concurrency() ignores — the
/// count `nproc` prints. Never less than 1.
unsigned allowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0)
    return static_cast<unsigned>(CPU_COUNT(&set));
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// The one worker loop of every pool: min(jobs, count) threads take task
/// indices 0, 1, 2, ... in order from one atomic counter until all `count`
/// are taken, and `task(i)` runs task i.
template <typename Task>
void runPool(std::size_t count, unsigned jobs, const Task& task) {
  std::atomic<std::size_t> next{0};
  auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      task(i);
    }
  };
  std::vector<std::thread> pool;
  const unsigned n_threads =
      static_cast<unsigned>(std::min<std::size_t>(jobs, count));
  pool.reserve(n_threads);
  for (unsigned t = 0; t < n_threads; ++t) pool.emplace_back(worker);
  for (std::thread& th : pool) th.join();
}

/// The tapes of a pooled grid's synthetic rows. A row's cell in column 0
/// records the row's stream once; the row's other cells wait until it is
/// recorded and read it too; the row's last cell to finish frees it. The
/// grid dispatches column 0 of a row before any other of its cells, and a
/// recording waits on nothing, so every wait ends.
class RowTapes {
 public:
  RowTapes(std::size_t rows, std::size_t cols)
      : tapes_(rows), left_(rows, cols) {}

  /// The tape cell (row, col) reads; `rc` is the cell's configuration.
  const trace::StreamTape& open(std::size_t row, std::size_t col,
                                const RunConfig& rc) {
    if (col == 0) {
      trace::SyntheticTraceGenerator gen = generatorFor(rc);
      auto tape = std::make_unique<trace::StreamTape>(gen);
      const trace::StreamTape& t = *tape;
      {
        const std::lock_guard<std::mutex> lk(mu_);
        tapes_[row] = std::move(tape);
      }
      recorded_.notify_all();
      return t;
    }
    std::unique_lock<std::mutex> lk(mu_);
    recorded_.wait(lk, [&] { return tapes_[row] != nullptr; });
    return *tapes_[row];
  }

  /// One of the row's cells is done reading its tape.
  void close(std::size_t row) {
    std::unique_ptr<trace::StreamTape> last;  // freed outside the lock
    const std::lock_guard<std::mutex> lk(mu_);
    if (--left_[row] == 0) last = std::move(tapes_[row]);
  }

 private:
  std::mutex mu_;
  std::condition_variable recorded_;
  std::vector<std::unique_ptr<trace::StreamTape>> tapes_;
  std::vector<std::size_t> left_;  ///< cells of each row still to close
};

/// The RunConfig of one (workload, configuration) grid cell: the default
/// system with the grid's shared budget and seed.
RunConfig gridCellConfig(const trace::WorkloadProfile& wl,
                         const core::InterfaceConfig& cfg,
                         std::uint64_t instructions, std::uint64_t seed) {
  RunConfig rc;
  rc.workload = wl;
  rc.interface_cfg = cfg;
  rc.system = defaultSystem();
  rc.instructions = instructions;
  rc.seed = seed;
  return rc;
}

}  // namespace

RunOutput runOne(const RunConfig& rc, const InterfaceDecorator& decorate) {
  return runWindows(rc, decorate, allowedCpus() >= 2);
}

std::vector<RunOutput> runManyParallel(const std::vector<RunConfig>& rcs,
                                       unsigned jobs) {
  if (jobs == 0) jobs = parallelJobs();
  std::vector<RunOutput> outs(rcs.size());
  if (rcs.empty()) return outs;

  if (jobs <= 1 || rcs.size() == 1) {
    for (std::size_t i = 0; i < rcs.size(); ++i) outs[i] = runOne(rcs[i]);
    return outs;
  }

  // Each run owns its EnergyAccount, trace generator and interface, so no
  // simulator state is shared; the output slot is fixed by the input index,
  // keeping result order (and every value in it) identical to the serial
  // loop. Workers read their generators inline: a helper beside each worker
  // would compete with the pool for the CPUs.
  runPool(rcs.size(), jobs,
          [&](std::size_t i) { outs[i] = runWindows(rcs[i], {}, false); });
  return outs;
}

std::vector<std::vector<RunOutput>> runMatrixParallel(
    const std::vector<trace::WorkloadProfile>& wls,
    const std::vector<core::InterfaceConfig>& cfgs,
    std::uint64_t instructions, std::uint64_t seed, unsigned jobs) {
  if (jobs == 0) jobs = parallelJobs();
  const std::size_t rows = wls.size();
  const std::size_t cols = cfgs.size();
  std::vector<RunConfig> rcs;
  rcs.reserve(rows * cols);
  for (const auto& wl : wls)
    for (const auto& cfg : cfgs)
      rcs.push_back(gridCellConfig(wl, cfg, instructions, seed));
  std::vector<RunOutput> flat;
  if (jobs <= 1 || rcs.size() <= 1) {
    flat = runManyParallel(rcs, jobs);
  } else {
    // A synthetic row of several configurations generates its stream once,
    // onto a tape all its cells read (RowTapes); a budget of 0 is an
    // unbounded stream, which no tape can hold. Cells go column-major
    // within blocks of `jobs` rows: a block's first `jobs` cells record
    // its rows' tapes side by side, and at most about two blocks' tapes
    // are alive at once.
    std::vector<std::size_t> order;
    order.reserve(rcs.size());
    for (std::size_t b = 0; b < rows; b += jobs)
      for (std::size_t c = 0; c < cols; ++c)
        for (std::size_t w = b; w < std::min<std::size_t>(b + jobs, rows); ++w)
          order.push_back(w * cols + c);
    RowTapes tapes(rows, cols);
    flat.resize(rcs.size());
    runPool(order.size(), jobs, [&](std::size_t k) {
      const std::size_t cell = order[k];
      const std::size_t w = cell / cols;
      if (cols < 2 || instructions == 0 || wls[w].isTrace()) {
        flat[cell] = runWindows(rcs[cell], {}, false);
        return;
      }
      const trace::StreamTape& tape = tapes.open(w, cell % cols, rcs[cell]);
      flat[cell] = runWindows(rcs[cell], {}, false, &tape);
      tapes.close(w);
    });
  }
  std::vector<std::vector<RunOutput>> by_wl(rows);
  for (std::size_t w = 0; w < rows; ++w)
    by_wl[w].assign(flat.begin() + static_cast<std::ptrdiff_t>(w * cols),
                    flat.begin() + static_cast<std::ptrdiff_t>((w + 1) * cols));
  return by_wl;
}

std::uint64_t captureTrace(const RunConfig& rc, const std::string& path) {
  MALEC_CHECK_MSG(!rc.workload.isTrace(),
                  "captureTrace() needs a synthetic workload, not a trace "
                  "replay — copy the file instead");
  trace::SyntheticTraceGenerator gen = generatorFor(rc);
  trace::TraceWriter w(path, rc.system.layout);
  if (!w.ok()) MALEC_CHECK_MSG(false, w.error().c_str());
  trace::InstrRecord r;
  while (gen.next(r)) w.write(r);
  if (!w.close()) MALEC_CHECK_MSG(false, w.error().c_str());
  return w.written();
}

std::uint64_t parseU64Strict(const std::string& s, const char* what) {
  bool valid = !s.empty();
  for (const char c : s)
    valid = valid && std::isdigit(static_cast<unsigned char>(c)) != 0;
  std::uint64_t v = 0;
  if (valid) {
    errno = 0;
    char* end = nullptr;
    v = std::strtoull(s.c_str(), &end, 10);
    valid = errno == 0 && end == s.c_str() + s.size();
  }
  if (!valid) {
    const std::string msg = std::string("invalid ") + what + ": '" + s +
                            "' is not an unsigned base-10 integer";
    MALEC_CHECK_MSG(false, msg.c_str());
  }
  return v;
}

namespace {

/// Env knobs: unset or empty = fall back; "0" = fall back (documented as
/// "use the default"); anything non-numeric aborts via parseU64Strict.
std::uint64_t envU64(const char* name, std::uint64_t dflt) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return dflt;
  const std::uint64_t v = parseU64Strict(env, name);
  return v > 0 ? v : dflt;
}

}  // namespace

std::uint64_t instructionBudget(std::uint64_t dflt) {
  return envU64("MALEC_INSTR", dflt);
}

unsigned parallelJobs(unsigned dflt) {
  const std::uint64_t v = envU64("MALEC_JOBS", 0);
  // A worker count past unsigned range would truncate in the cast below —
  // the silent-reinterpretation bug class strict parsing exists to kill.
  MALEC_CHECK_MSG(v <= std::numeric_limits<unsigned>::max(),
                  "MALEC_JOBS exceeds the supported worker-count range");
  if (v > 0) return static_cast<unsigned>(v);
  if (dflt > 0) return dflt;
  return allowedCpus();
}

}  // namespace malec::sim
