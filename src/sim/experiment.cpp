#include "sim/experiment.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include <cmath>
#include <iterator>

#include "ckpt/state_io.h"
#include "common/binio.h"
#include "common/check.h"
#include "energy/energy_account.h"
#include "phase/sample_plan.h"
#include "sim/presets.h"
#include "sim/structures.h"
#include "trace/synth_generator.h"
#include "trace/trace_io.h"

namespace malec::sim {

namespace {

/// The pluggable trace source behind runOne(): a synthetic generator for
/// profile workloads (the original, bit-identical path) or a file reader
/// for trace-backed ones. `reader` stays null for synthetic sources and
/// lets the caller verify the stream survived intact after the run;
/// `synth`/`limited` expose the concrete objects the checkpoint layer
/// saves and restores.
struct ResolvedSource {
  std::unique_ptr<trace::TraceSource> src;
  trace::TraceReader* reader = nullptr;
  trace::SyntheticTraceGenerator* synth = nullptr;
  trace::LimitedTraceSource* limited = nullptr;
  std::uint64_t instructions = 0;  ///< effective stream length
};

/// Abort unless the trace's captured AddressLayout matches the layout this
/// run simulates — shared by the full-replay and phase-sampled paths.
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

/// A replay must never report results off a stream that died mid-file or a
/// file whose payload is corrupt beyond the replayed prefix:
/// finishChecksum() hashes whatever an instruction cap (or sample plan)
/// left unread, so a partial replay is held to the same integrity bar as a
/// full one. A file is fully verified at most once per process (keyed by
/// path + record count + expected checksum, so a changed file re-verifies)
/// — a sweep of many configs over one big capped trace must not re-read the
/// remainder once per run.
void verifyReaderTail(trace::TraceReader& reader, const std::string& path) {
  static std::mutex verified_mu;
  static std::set<std::string>* verified = new std::set<std::string>();
  const std::string key = path + "\n" + std::to_string(reader.total()) +
                          "\n" +
                          std::to_string(reader.expectedChecksum());
  bool skip_tail_verify;
  {
    std::lock_guard<std::mutex> lock(verified_mu);
    skip_tail_verify = verified->count(key) != 0;
  }
  const bool good =
      skip_tail_verify ? reader.ok() : reader.finishChecksum();
  if (!good) MALEC_CHECK_MSG(false, reader.error().c_str());
  if (!skip_tail_verify) {
    std::lock_guard<std::mutex> lock(verified_mu);
    verified->insert(key);
  }
}

ResolvedSource makeTraceSource(const RunConfig& rc) {
  ResolvedSource rs;
  if (!rc.workload.isTrace()) {
    auto gen = std::make_unique<trace::SyntheticTraceGenerator>(
        rc.workload, rc.system.layout, rc.instructions, rc.seed);
    rs.synth = gen.get();
    rs.src = std::move(gen);
    rs.instructions = rc.instructions;
    return rs;
  }
  auto rd = std::make_unique<trace::TraceReader>(rc.workload.trace_path);
  if (!rd->ok()) MALEC_CHECK_MSG(false, rd->error().c_str());
  checkReplayLayout(*rd, rc);
  trace::TraceReader* reader = rd.get();
  const std::uint64_t total = rd->total();
  std::uint64_t n = rc.instructions == 0 ? total
                                         : std::min(rc.instructions, total);
  if (n < total) {
    auto lim = std::make_unique<trace::LimitedTraceSource>(std::move(rd), n);
    rs.limited = lim.get();
    rs.src = std::move(lim);
  } else {
    rs.src = std::move(rd);
  }
  rs.reader = reader;
  rs.instructions = n;
  return rs;
}

/// Serves the next `count` records of a shared reader with seq rebased to
/// start at 0 — a CoreModel's ROB indexing assumes the first dispatched
/// record's seq matches its (zero-initialised) head pointer. Dependency
/// distances reaching back past the segment start exceed the rebased seq
/// and are dropped by the core's addDep bound check, which is exactly the
/// sampling approximation we want.
class SegmentSource final : public trace::TraceSource {
 public:
  SegmentSource(trace::TraceReader& rd, std::uint64_t count)
      : rd_(rd), remaining_(count) {}

  bool next(trace::InstrRecord& out) override {
    if (remaining_ == 0 || !rd_.next(out)) return false;
    if (!have_base_) {
      base_ = out.seq;
      have_base_ = true;
    }
    out.seq -= base_;
    --remaining_;
    return true;
  }
  void reset() override {
    MALEC_CHECK_MSG(false, "segment sources cannot rewind a shared reader");
  }

 private:
  trace::TraceReader& rd_;
  std::uint64_t remaining_;
  std::uint64_t base_ = 0;
  bool have_base_ = false;
};

RunOutput runOneSampled(const RunConfig& rc,
                        const InterfaceDecorator& decorate);

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
    if (src.limited != nullptr) src.limited->setServed(pos);
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

/// The metrics every run derives identically from its counters: energy
/// rollups from the account and the rate fields from out.ifc. Shared by
/// the full-replay and phase-sampled paths so the two can never diverge
/// on a derivation or zero-guard — the phase_sampled suite's error
/// columns depend on both paths deriving metrics the same way.
void finalizeDerivedMetrics(RunOutput& out, const energy::EnergyAccount& ea,
                            Cycle cycles, double clock_ghz) {
  out.dynamic_pj = ea.dynamicPj();
  out.leakage_pj = ea.leakagePj(cycles, clock_ghz);
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
  out.energy_detail = ea.report(cycles, clock_ghz);
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

RunOutput runOne(const RunConfig& rc, const InterfaceDecorator& decorate) {
  if (rc.workload.isSampled()) return runOneSampled(rc, decorate);

  energy::EnergyAccount ea;
  const RunStack stack(rc.interface_cfg, rc.system, ea, decorate);
  ResolvedSource src = makeTraceSource(rc);
  cpu::CoreModel core(rc.system, rc.interface_cfg, *src.src, stack.ifc());

  MALEC_CHECK_MSG(rc.ckpt_every == 0 || !rc.ckpt_out.empty(),
                  "ckpt_every has nowhere to write — set ckpt_out too");
  if (!rc.start_ckpt.empty()) restoreRunState(rc, src, stack, core);
  bool wrote_ckpt = false;
  if (!rc.ckpt_out.empty()) {
    MALEC_CHECK_MSG(rc.ckpt_every != 0,
                    "a checkpoint output path needs an interval — set "
                    "ckpt_every (--ckpt-every)");
    core.setCheckpointHook(
        rc.ckpt_every, [&rc, &src, &stack, &core, &wrote_ckpt] {
          saveRunState(rc, src, stack, core);
          wrote_ckpt = true;
        });
  }

  // Safety bound: no workload should need 60 cycles per instruction.
  const cpu::CoreStats cs = core.run(src.instructions * 60 + 100'000);

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

  if (src.reader != nullptr)
    verifyReaderTail(*src.reader, rc.workload.trace_path);

  // A run that stopped at the safety bound describes a truncated stream:
  // refuse it, as sampled replay refuses an under-retired warmup. (An
  // unbounded synthetic stream, instructions == 0, has nothing to reach.)
  if (cs.instructions < src.instructions) {
    const std::string msg =
        "run retired " + std::to_string(cs.instructions) + " of its " +
        std::to_string(src.instructions) +
        " instructions before the cycle bound — the pipeline stopped "
        "making progress";
    MALEC_CHECK_MSG(false, msg.c_str());
  }

  RunOutput out;
  out.benchmark = rc.workload.name;
  out.config = rc.interface_cfg.name;
  out.cycles = cs.cycles;
  out.instructions = cs.instructions;
  out.ipc = cs.ipc();
  out.core = cs;
  out.ifc = stack.ifc().stats();
  finalizeDerivedMetrics(out, ea, cs.cycles, rc.system.clock_ghz);
  return out;
}

namespace {

/// Phase-sampled replay: simulate only the plan's representative intervals
/// — each primed by a warmup prefix whose stats and energy are left out —
/// and report the weighted phase combination as the full-trace estimate.
///
/// ONE interface (caches, TLB, way tables, WDU) lives across the whole
/// pass, so memory-system state accumulates from segment to segment the
/// way it would across a full replay; fast-forwarded stretches leave it
/// untouched (the staleness this introduces is the sampling
/// approximation, bounded by the per-pick warmup that re-primes the hot
/// set). Every interface counter and energy-event count is snapshotted
/// when a measurement window opens and only the window's delta is folded
/// in, so warmup primes state without entering the estimate. Each segment
/// gets a fresh CoreModel, so the pipeline resets at segment boundaries
/// exactly like at a SimPoint boundary. Every estimate is a deterministic
/// fold in pick order, so repeated and parallel runs are bit-identical.
RunOutput runOneSampled(const RunConfig& rc,
                        const InterfaceDecorator& decorate) {
  MALEC_CHECK_MSG(rc.workload.isTrace(),
                  "a sample plan needs a trace-backed workload — synthetic "
                  "profiles replay in full");
  MALEC_CHECK_MSG(rc.instructions == 0,
                  "sampled replay does not compose with an instruction cap "
                  "(the plan determines what is simulated) — run with "
                  "--instr 0 / MALEC_INSTR unset");
  MALEC_CHECK_MSG(rc.ckpt_out.empty() && rc.start_ckpt.empty(),
                  "sampled replay does not compose with ckpt_out/start_ckpt");

  phase::SamplePlan plan;
  std::string err;
  if (!phase::loadBoundPlan(rc.workload.sample_plan_path,
                            rc.workload.trace_path, plan, err)) {
    err += " — write a plan with `trace_tools phases " +
           rc.workload.trace_path + "`";
    MALEC_CHECK_MSG(false, err.c_str());
  }
  trace::TraceReader rd(rc.workload.trace_path);
  if (!rd.ok()) MALEC_CHECK_MSG(false, rd.error().c_str());
  checkReplayLayout(rd, rc);

  // Weighted-combination accumulators: full-trace estimates as doubles,
  // folded in pick order. est += measured * (cluster weight / measured
  // instructions) scales each representative to the phase it stands for.
  double cycles_est = 0.0;
  std::vector<double> event_est;
  constexpr std::size_t kNumIfcFields = std::size(core::kInterfaceCounterFields);
  constexpr std::size_t kNumCoreFields = std::size(cpu::kCoreScaledCounterFields);
  std::vector<double> ifc_est(kNumIfcFields, 0.0);
  std::vector<double> core_est(kNumCoreFields, 0.0);

  energy::EnergyAccount ea;
  const RunStack stack(rc.interface_cfg, rc.system, ea, decorate);
  core::MemInterface& ifc = stack.ifc();
  // The event-id space is fixed once the interface is constructed — the
  // run only counts — so per-segment event deltas are plain snapshots.
  event_est.resize(ea.eventTypes(), 0.0);
  std::vector<std::uint64_t> ev_snap(ea.eventTypes(), 0);

  // One continuous simulated timeline across every segment: the shared
  // interface keys busy windows and miss ready times to absolute cycles,
  // so each segment's core resumes the clock where the previous one left
  // off instead of restarting at 0 (see CoreModel::run's start_cycle).
  Cycle sim_clock = 0;
  trace::InstrRecord skip;
  const std::vector<phase::PlanSegment> segs = plan.segments();
  for (std::size_t k = 0; k < segs.size(); ++k) {
    const phase::PlanSegment& seg = segs[k];
    // Fast-forward: decode-only, no simulation — this skip is where the
    // wall-clock win over a full replay comes from.
    while (rd.consumed() < seg.warm_start && rd.next(skip)) {
    }
    MALEC_CHECK_MSG(rd.consumed() == seg.warm_start, rd.error().c_str());

    const std::uint64_t warm = seg.start - seg.warm_start;
    if (warm > 0) {
      // Warmup: primes caches/TLB/WDU; the snapshots below remove its
      // counters and energy events.
      SegmentSource wsrc(rd, warm);
      cpu::CoreModel wcore(rc.system, rc.interface_cfg, wsrc, ifc);
      const cpu::CoreStats ws = wcore.run(warm * 60 + 100'000, sim_clock);
      sim_clock += ws.cycles;
      // An under-retired warmup (reader failure or the safety bound) would
      // silently shift the measurement off its interval.
      MALEC_CHECK_MSG(ws.instructions == warm,
                      "sampled warmup did not retire every instruction");
    }
    const core::InterfaceStats warm_snap = ifc.stats();
    for (energy::EnergyAccount::EventId id = 0; id < ea.eventTypes(); ++id)
      ev_snap[id] = ea.eventCount(id);

    const std::uint64_t measured = seg.end - seg.start;
    SegmentSource msrc(rd, measured);
    cpu::CoreModel core(rc.system, rc.interface_cfg, msrc, ifc);
    const cpu::CoreStats cs = core.run(measured * 60 + 100'000, sim_clock);
    sim_clock += cs.cycles;
    MALEC_CHECK_MSG(rd.ok(), rd.error().c_str());
    MALEC_CHECK_MSG(cs.instructions == measured,
                    "sampled interval did not retire every instruction");

    const double scale =
        static_cast<double>(plan.picks[k].weight_instructions) /
        static_cast<double>(cs.instructions);
    cycles_est += static_cast<double>(cs.cycles) * scale;
    for (std::size_t i = 0; i < kNumCoreFields; ++i)
      core_est[i] +=
          static_cast<double>(cs.*cpu::kCoreScaledCounterFields[i]) * scale;

    const core::InterfaceStats delta =
        core::statsDelta(ifc.stats(), warm_snap);
    for (std::size_t i = 0; i < kNumIfcFields; ++i)
      ifc_est[i] += static_cast<double>(
                        delta.*core::kInterfaceCounterFields[i]) *
                    scale;
    for (energy::EnergyAccount::EventId id = 0; id < ea.eventTypes(); ++id)
      event_est[id] +=
          static_cast<double>(ea.eventCount(id) - ev_snap[id]) * scale;
  }

  // Hash the remainder so a sampled replay vouches for the whole file's
  // integrity exactly like a capped full replay does.
  verifyReaderTail(rd, rc.workload.trace_path);

  // One internally-consistent estimate: round the combined counters once,
  // then derive every reported rate and energy from the rounded values the
  // same way the full-replay path derives them from measured ones.
  RunOutput out;
  out.benchmark = rc.workload.name;
  out.config = rc.interface_cfg.name;
  out.instructions = plan.trace_records;
  out.cycles = static_cast<Cycle>(std::llround(cycles_est));
  if (out.cycles == 0) out.cycles = 1;
  out.ipc = static_cast<double>(out.instructions) /
            static_cast<double>(out.cycles);
  for (std::size_t i = 0; i < kNumIfcFields; ++i)
    out.ifc.*core::kInterfaceCounterFields[i] =
        static_cast<std::uint64_t>(std::llround(ifc_est[i]));
  out.core.cycles = out.cycles;
  out.core.instructions = out.instructions;
  for (std::size_t i = 0; i < kNumCoreFields; ++i)
    out.core.*cpu::kCoreScaledCounterFields[i] =
        static_cast<std::uint64_t>(std::llround(core_est[i]));

  ea.clearCounts();
  for (energy::EnergyAccount::EventId id = 0; id < ea.eventTypes(); ++id)
    ea.count(id, static_cast<std::uint64_t>(std::llround(event_est[id])));
  finalizeDerivedMetrics(out, ea, out.cycles, rc.system.clock_ghz);
  return out;
}

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

std::vector<RunOutput> runManyParallel(const std::vector<RunConfig>& rcs,
                                       unsigned jobs) {
  if (jobs == 0) jobs = parallelJobs();
  std::vector<RunOutput> outs(rcs.size());
  if (rcs.empty()) return outs;

  if (jobs <= 1 || rcs.size() == 1) {
    for (std::size_t i = 0; i < rcs.size(); ++i) outs[i] = runOne(rcs[i]);
    return outs;
  }

  // Work-stealing over an atomic index: each run owns its EnergyAccount,
  // trace generator and interface, so no simulator state is shared; the
  // output slot is fixed by the input index, keeping result order (and every
  // value in it) identical to the serial loop.
  std::atomic<std::size_t> next{0};
  auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= rcs.size()) return;
      outs[i] = runOne(rcs[i]);
    }
  };
  std::vector<std::thread> pool;
  const unsigned n_threads =
      static_cast<unsigned>(std::min<std::size_t>(jobs, rcs.size()));
  pool.reserve(n_threads);
  for (unsigned t = 0; t < n_threads; ++t) pool.emplace_back(worker);
  for (std::thread& th : pool) th.join();
  return outs;
}

std::vector<std::vector<RunOutput>> runMatrixParallel(
    const std::vector<trace::WorkloadProfile>& wls,
    const std::vector<core::InterfaceConfig>& cfgs,
    std::uint64_t instructions, std::uint64_t seed, unsigned jobs) {
  std::vector<RunConfig> rcs;
  rcs.reserve(wls.size() * cfgs.size());
  for (const auto& wl : wls)
    for (const auto& cfg : cfgs)
      rcs.push_back(gridCellConfig(wl, cfg, instructions, seed));
  const auto flat = runManyParallel(rcs, jobs);
  std::vector<std::vector<RunOutput>> by_wl(wls.size());
  for (std::size_t w = 0; w < wls.size(); ++w)
    by_wl[w].assign(flat.begin() + static_cast<std::ptrdiff_t>(w * cfgs.size()),
                    flat.begin() +
                        static_cast<std::ptrdiff_t>((w + 1) * cfgs.size()));
  return by_wl;
}

std::uint64_t captureTrace(const RunConfig& rc, const std::string& path) {
  MALEC_CHECK_MSG(!rc.workload.isTrace(),
                  "captureTrace() needs a synthetic workload, not a trace "
                  "replay — copy the file instead");
  trace::SyntheticTraceGenerator gen(rc.workload, rc.system.layout,
                                     rc.instructions, rc.seed);
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
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace malec::sim
