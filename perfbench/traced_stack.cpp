#include "traced_stack.h"

#include <filesystem>
#include <memory>

#include "ckpt/state_io.h"
#include "common/check.h"
#include "cpu/core_model.h"
#include "energy/energy_account.h"
#include "host_clock.h"
#include "sim/presets.h"
#include "sim/structures.h"
#include "trace/synth_generator.h"
#include "trace/trace_io.h"

namespace perfbench {

using malec::Cycle;
using malec::SeqNum;
namespace ckpt = malec::ckpt;
namespace core = malec::core;
namespace cpu = malec::cpu;
namespace energy = malec::energy;
namespace sim = malec::sim;
namespace trace = malec::trace;

void LayerCounters::add(const LayerCounters& o) {
  next_ns += o.next_ns;
  next_calls += o.next_calls;
  begin_cycle_ns += o.begin_cycle_ns;
  submit_ns += o.submit_ns;
  end_cycle_ns += o.end_cycle_ns;
  drain_ns += o.drain_ns;
  end_cycle_calls += o.end_cycle_calls;
  submit_calls += o.submit_calls;
  submit_rejects += o.submit_rejects;
  core_run_ns += o.core_run_ns;
  report_ns += o.report_ns;
  build_ns += o.build_ns;
  runs += o.runs;
  ckpt_saves += o.ckpt_saves;
  ckpt_save_ns += o.ckpt_save_ns;
  ckpt_write_ns += o.ckpt_write_ns;
  ckpt_bytes += o.ckpt_bytes;
  ckpt_restore_ns += o.ckpt_restore_ns;
}

namespace {

class TimedTraceSource final : public trace::TraceSource {
 public:
  TimedTraceSource(trace::TraceSource& inner, LayerCounters& lc)
      : inner_(inner), lc_(lc) {}

  bool next(trace::InstrRecord& out) override {
    const std::int64_t t = hostNowNs();
    const bool ok = inner_.next(out);
    lc_.next_ns += hostNowNs() - t;
    ++lc_.next_calls;
    return ok;
  }
  void reset() override { inner_.reset(); }

 private:
  trace::TraceSource& inner_;
  LayerCounters& lc_;
};

class TimedMemInterface final : public core::MemInterface {
 public:
  TimedMemInterface(core::MemInterface& inner, LayerCounters& lc)
      : inner_(inner), lc_(lc) {}

  void beginCycle(Cycle now) override {
    const std::int64_t t = hostNowNs();
    inner_.beginCycle(now);
    lc_.begin_cycle_ns += hostNowNs() - t;
  }
  bool canAcceptLoad() const override { return timedAccept(true); }
  bool canAcceptStore() const override { return timedAccept(false); }
  bool submit(const core::MemOp& op) override {
    const std::int64_t t = hostNowNs();
    const bool ok = inner_.submit(op);
    lc_.submit_ns += hostNowNs() - t;
    ++lc_.submit_calls;
    if (!ok) ++lc_.submit_rejects;
    return ok;
  }
  void notifyStoreCommit(SeqNum seq) override {
    const std::int64_t t = hostNowNs();
    inner_.notifyStoreCommit(seq);
    lc_.submit_ns += hostNowNs() - t;
  }
  void endCycle(Cycle now) override {
    const std::int64_t t = hostNowNs();
    inner_.endCycle(now);
    lc_.end_cycle_ns += hostNowNs() - t;
    ++lc_.end_cycle_calls;
  }
  void drainCompletions(Cycle now, std::vector<SeqNum>& out) override {
    const std::int64_t t = hostNowNs();
    inner_.drainCompletions(now, out);
    lc_.drain_ns += hostNowNs() - t;
  }
  bool quiesced() const override { return inner_.quiesced(); }
  const core::InterfaceStats& stats() const override { return inner_.stats(); }
  void saveState(ckpt::StateWriter& w) const override { inner_.saveState(w); }
  void loadState(ckpt::StateReader& r) override { inner_.loadState(r); }

 private:
  bool timedAccept(bool load) const {
    const std::int64_t t = hostNowNs();
    const bool ok = load ? inner_.canAcceptLoad() : inner_.canAcceptStore();
    lc_.submit_ns += hostNowNs() - t;
    if (!ok) ++lc_.submit_rejects;
    return ok;
  }

  core::MemInterface& inner_;
  LayerCounters& lc_;
};

/// Serves the first record of `inner`, stamping the host time it was
/// pulled, then ends the stream.
class FirstRecordProbe final : public trace::TraceSource {
 public:
  explicit FirstRecordProbe(trace::TraceSource& inner) : inner_(inner) {}

  bool next(trace::InstrRecord& out) override {
    if (stamp_ns_ != 0) return false;
    stamp_ns_ = hostNowNs();
    return inner_.next(out);
  }
  void reset() override { inner_.reset(); }
  [[nodiscard]] std::int64_t stampNs() const { return stamp_ns_; }

 private:
  trace::TraceSource& inner_;
  std::int64_t stamp_ns_ = 0;
};

/// The trace source runOne would build for `rc`: the synthetic generator,
/// or a reader over the whole capture.
struct Source {
  std::unique_ptr<trace::SyntheticTraceGenerator> synth;
  std::unique_ptr<trace::TraceReader> reader;
  std::uint64_t instructions = 0;

  [[nodiscard]] trace::TraceSource& get() {
    return synth ? static_cast<trace::TraceSource&>(*synth) : *reader;
  }
};

Source makeSource(const sim::RunConfig& rc) {
  MALEC_CHECK_MSG(!rc.workload.isSampled(),
                  "traced runs do not cover phase-sampled replay");
  Source s;
  if (!rc.workload.isTrace()) {
    s.synth = std::make_unique<trace::SyntheticTraceGenerator>(
        rc.workload, rc.system.layout, rc.instructions, rc.seed);
    s.instructions = rc.instructions;
    return s;
  }
  s.reader = std::make_unique<trace::TraceReader>(rc.workload.trace_path);
  if (!s.reader->ok()) MALEC_CHECK_MSG(false, s.reader->error().c_str());
  MALEC_CHECK_MSG(rc.instructions == 0 || rc.instructions == s.reader->total(),
                  "traced replays cover whole captures only");
  s.instructions = s.reader->total();
  return s;
}

void saveSnapshot(const std::string& path, Source& src,
                  const cpu::CoreModel& core, const core::MemInterface& ifc,
                  const energy::EnergyAccount& ea, LayerCounters& lc) {
  const std::int64_t t0 = hostNowNs();
  ckpt::StateWriter w;
  w.beginSection("source");
  if (src.reader) {
    w.u64(src.reader->consumed());
    w.u64(src.reader->runningChecksum());
  } else {
    src.synth->saveState(w);
  }
  w.endSection();
  w.beginSection("core");
  core.saveState(w);
  w.endSection();
  w.beginSection("interface");
  ifc.saveState(w);
  w.endSection();
  w.beginSection("energy");
  ea.saveState(w);
  w.endSection();
  const std::int64_t t1 = hostNowNs();
  std::string err;
  if (!w.writeTo(path, err)) MALEC_CHECK_MSG(false, err.c_str());
  const std::int64_t t2 = hostNowNs();
  lc.ckpt_save_ns += t1 - t0;
  lc.ckpt_write_ns += t2 - t1;
  lc.ckpt_bytes += std::filesystem::file_size(path);
  ++lc.ckpt_saves;
}

void restoreSnapshot(const std::string& path, Source& src,
                     cpu::CoreModel& core, core::MemInterface& ifc,
                     energy::EnergyAccount& ea, LayerCounters& lc) {
  const std::int64_t t0 = hostNowNs();
  ckpt::StateReader r(path);
  if (!r.ok()) MALEC_CHECK_MSG(false, r.error().c_str());
  r.openSection("source");
  if (src.reader) {
    const std::uint64_t pos = r.u64();
    const std::uint64_t sum = r.u64();
    if (!src.reader->seekTo(pos, sum))
      MALEC_CHECK_MSG(false, src.reader->error().c_str());
  } else {
    src.synth->loadState(r);
  }
  r.endSection();
  r.openSection("core");
  core.loadState(r);
  r.endSection();
  r.openSection("interface");
  ifc.loadState(r);
  r.endSection();
  r.openSection("energy");
  ea.loadState(r);
  r.endSection();
  lc.ckpt_restore_ns += hostNowNs() - t0;
}

}  // namespace

sim::RunOutput tracedRun(const sim::RunConfig& rc, LayerCounters& lc,
                         const TracedCkpt& ck) {
  const std::int64_t t_build = hostNowNs();
  energy::EnergyAccount ea;
  sim::defineEnergies(ea, rc.interface_cfg, rc.system);
  Source base = makeSource(rc);
  TimedTraceSource src(base.get(), lc);
  const auto inner_ifc = sim::makeInterface(rc.interface_cfg, rc.system, ea);
  TimedMemInterface ifc(*inner_ifc, lc);
  cpu::CoreModel core(rc.system, rc.interface_cfg, src, ifc);
  lc.build_ns += hostNowNs() - t_build;
  ++lc.runs;

  if (!ck.restore_path.empty())
    restoreSnapshot(ck.restore_path, base, core, ifc, ea, lc);
  if (!ck.save_path.empty()) {
    core.setCheckpointHook(ck.save_every, [&] {
      saveSnapshot(ck.save_path, base, core, ifc, ea, lc);
    });
  }

  // runOne's safety bound.
  const std::int64_t t_run = hostNowNs();
  const cpu::CoreStats cs = core.run(base.instructions * 60 + 100'000);
  lc.core_run_ns += hostNowNs() - t_run;
  if (base.reader && !base.reader->finishChecksum())
    MALEC_CHECK_MSG(false, base.reader->error().c_str());

  // runOne's metric derivation, field for field.
  const std::int64_t t_report = hostNowNs();
  sim::RunOutput out;
  out.benchmark = rc.workload.name;
  out.config = rc.interface_cfg.name;
  out.cycles = cs.cycles;
  out.instructions = cs.instructions;
  out.ipc = cs.ipc();
  out.core = cs;
  out.ifc = ifc.stats();
  out.dynamic_pj = ea.dynamicPj();
  out.leakage_pj = ea.leakagePj(cs.cycles, rc.system.clock_ghz);
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
  out.energy_detail = ea.report(cs.cycles, rc.system.clock_ghz);
  lc.report_ns += hostNowNs() - t_report;
  return out;
}

std::int64_t firstInstructionNs(const sim::RunConfig& rc) {
  energy::EnergyAccount ea;
  sim::defineEnergies(ea, rc.interface_cfg, rc.system);
  Source base = makeSource(rc);
  FirstRecordProbe probe(base.get());
  const auto ifc = sim::makeInterface(rc.interface_cfg, rc.system, ea);
  cpu::CoreModel core(rc.system, rc.interface_cfg, probe, *ifc);
  (void)core.run(100'000);
  MALEC_CHECK_MSG(probe.stampNs() != 0, "the core never pulled a record");
  return probe.stampNs();
}

void TimedSink::beginSuite(const sim::SuiteInfo& info) {
  inner_.beginSuite(info);
}

void TimedSink::runResult(const sim::RunRecord& rec) {
  const std::int64_t t = hostNowNs();
  inner_.runResult(rec);
  run_result_ns_ += hostNowNs() - t;
}

void TimedSink::table(const sim::Table& t, const std::string& name,
                      int precision) {
  inner_.table(t, name, precision);
}

void TimedSink::note(const std::string& text) { inner_.note(text); }

void TimedSink::endSuite() {
  const std::int64_t t = hostNowNs();
  inner_.endSuite();
  end_suite_ns_ += hostNowNs() - t;
}

}  // namespace perfbench
