// Wake-driven run loop: CoreModel::run skips quiet cycles, and the skip must
// be invisible in every simulated number.
//
// The core only skips when the interface's quietUntil() says so, and the
// MemInterface default says "never quiet". SteppingInterface below is a
// plain forwarding decorator that does not override the quiet hooks, so a
// core driving it steps every cycle: it is the reference. Each test runs
// the same simulation with and without the decorator and compares CoreStats,
// every kInterfaceCounterFields counter and the byte-exact energy report —
// over all registered presets on synthetic workloads, a trace replay that
// checkpoints and resumes, and the segment structure of phase-sampled
// replay (one interface shared by per-segment cores that continue the
// clock).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/state_io.h"
#include "cpu/core_model.h"
#include "energy/energy_account.h"
#include "sim/differential.h"
#include "sim/experiment.h"
#include "sim/presets.h"
#include "sim/registry.h"
#include "sim/structures.h"
#include "trace/synth_generator.h"
#include "trace/trace_io.h"
#include "trace/workloads.h"

namespace malec {
namespace {

/// Forwards every call except quietUntil()/replayQuietCycles(), so the core
/// behind it never skips a cycle.
class SteppingInterface final : public core::MemInterface {
 public:
  explicit SteppingInterface(core::MemInterface& inner) : inner_(inner) {}

  void beginCycle(Cycle now) override { inner_.beginCycle(now); }
  bool canAcceptLoad() const override { return inner_.canAcceptLoad(); }
  bool canAcceptStore() const override { return inner_.canAcceptStore(); }
  bool submit(const core::MemOp& op) override { return inner_.submit(op); }
  void notifyStoreCommit(SeqNum seq) override {
    inner_.notifyStoreCommit(seq);
  }
  void endCycle(Cycle now) override { inner_.endCycle(now); }
  void drainCompletions(Cycle now, std::vector<SeqNum>& out) override {
    inner_.drainCompletions(now, out);
  }
  bool quiesced() const override { return inner_.quiesced(); }
  const core::InterfaceStats& stats() const override { return inner_.stats(); }
  void saveState(ckpt::StateWriter& w) const override { inner_.saveState(w); }
  void loadState(ckpt::StateReader& r) override { inner_.loadState(r); }

 private:
  core::MemInterface& inner_;
};

/// One simulated stack — energy account, interface, optional stepping
/// decorator — built the way runOne builds it.
struct Stack {
  Stack(const core::InterfaceConfig& cfg, const core::SystemConfig& sys,
        bool stepping)
      : inner(makeInner(cfg, sys, ea)), decorator(*inner) {
    ifc = stepping ? static_cast<core::MemInterface*>(&decorator)
                   : inner.get();
  }

  static std::unique_ptr<core::MemInterface> makeInner(
      const core::InterfaceConfig& cfg, const core::SystemConfig& sys,
      energy::EnergyAccount& ea) {
    sim::defineEnergies(ea, cfg, sys);
    return sim::makeInterface(cfg, sys, ea);
  }

  energy::EnergyAccount ea;
  std::unique_ptr<core::MemInterface> inner;
  SteppingInterface decorator;
  core::MemInterface* ifc = nullptr;
};

/// What a run reports, in the form sim::diffOutputs compares exactly:
/// CoreStats, every interface counter and the energy report.
sim::RunOutput outputOf(const cpu::CoreStats& cs, const Stack& s,
                        const core::SystemConfig& sys) {
  sim::RunOutput out;
  out.cycles = cs.cycles;
  out.instructions = cs.instructions;
  out.core = cs;
  out.ifc = s.ifc->stats();
  out.energy_detail = s.ea.report(cs.cycles, sys.clock_ghz);
  return out;
}

std::string tmpPath(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

std::string fileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

struct SynthRun {
  sim::RunOutput out;
  std::uint64_t executed = 0;
};

SynthRun runSynth(const core::InterfaceConfig& cfg, const std::string& bench,
                  std::uint64_t instrs, std::uint64_t seed, bool stepping) {
  const core::SystemConfig sys = sim::defaultSystem();
  Stack s(cfg, sys, stepping);
  trace::SyntheticTraceGenerator gen(trace::workloadByName(bench), sys.layout,
                                     instrs, seed);
  cpu::CoreModel core(sys, cfg, gen, *s.ifc);
  const cpu::CoreStats cs = core.run(instrs * 60 + 100'000);
  return {outputOf(cs, s, sys), core.executedCycles()};
}

TEST(WakeLoop, EveryPresetMatchesSteppingOnSynthWorkloads) {
  std::uint64_t simulated = 0;
  std::uint64_t executed = 0;
  for (const std::string& preset : sim::presetRegistry().names()) {
    const core::InterfaceConfig cfg = sim::presetRegistry().get(preset)();
    for (const char* bench : {"gcc", "mcf", "djpeg", "gap"}) {
      const SynthRun ref = runSynth(cfg, bench, 6000, 1, /*stepping=*/true);
      const SynthRun got = runSynth(cfg, bench, 6000, 1, /*stepping=*/false);
      EXPECT_EQ(sim::diffOutputs(ref.out, got.out), "")
          << preset << " on " << bench;
      // The reference really steps; the skipping run never steps more.
      EXPECT_EQ(ref.executed, ref.out.cycles) << preset << " " << bench;
      EXPECT_LE(got.executed, ref.executed) << preset << " " << bench;
      simulated += got.out.cycles;
      executed += got.executed;
    }
  }
  // The comparison is only meaningful if cycles were actually skipped.
  EXPECT_LT(executed, simulated);
}

TEST(WakeLoop, PinnedExecutedCycleCount) {
  // MALEC, synth mcf, 300k instructions, seed 1: the cycles the wake-driven
  // loop steps (a host-side work count — it changes only when the skip
  // logic does) against the simulated cycles, which never change.
  const SynthRun got =
      runSynth(sim::presetMalec(), "mcf", 300'000, 1, /*stepping=*/false);
  EXPECT_EQ(got.out.cycles, 912'637u);
  EXPECT_EQ(got.executed, 291'462u);
}

/// Reader position + core + interface + energy, the state runOne
/// checkpoints.
void saveSnapshot(const std::string& path, const trace::TraceReader& rd,
                  const cpu::CoreModel& core, const Stack& s) {
  ckpt::StateWriter w;
  w.beginSection("source");
  w.u64(rd.consumed());
  w.u64(rd.runningChecksum());
  w.endSection();
  w.beginSection("core");
  core.saveState(w);
  w.endSection();
  w.beginSection("interface");
  s.ifc->saveState(w);
  w.endSection();
  w.beginSection("energy");
  s.ea.saveState(w);
  w.endSection();
  std::string err;
  ASSERT_TRUE(w.writeTo(path, err)) << err;
}

void loadSnapshot(const std::string& path, trace::TraceReader& rd,
                  cpu::CoreModel& core, Stack& s) {
  ckpt::StateReader r(path);
  ASSERT_TRUE(r.ok()) << r.error();
  r.openSection("source");
  const std::uint64_t pos = r.u64();
  const std::uint64_t sum = r.u64();
  ASSERT_TRUE(rd.seekTo(pos, sum)) << rd.error();
  r.endSection();
  r.openSection("core");
  core.loadState(r);
  r.endSection();
  r.openSection("interface");
  s.ifc->loadState(r);
  r.endSection();
  r.openSection("energy");
  s.ea.loadState(r);
  r.endSection();
}

TEST(WakeLoop, TraceReplayCheckpointsAndResumesLikeStepping) {
  const std::string trace_path = tmpPath("wake_loop_mcf.mtrace");
  sim::RunConfig capture;
  capture.workload = trace::workloadByName("mcf");
  capture.interface_cfg = sim::presetMalec();
  capture.system = sim::defaultSystem();
  capture.instructions = 12'000;
  capture.seed = 3;
  sim::captureTrace(capture, trace_path);

  const core::InterfaceConfig cfg = sim::presetMalec();
  const core::SystemConfig sys = sim::defaultSystem();
  constexpr std::uint64_t kEvery = 5'000;

  // Straight runs that checkpoint at every boundary; the snapshots of the
  // skipping run must be byte-identical to the stepping run's.
  sim::RunOutput straight[2];
  int snapshots[2] = {0, 0};
  for (const bool stepping : {true, false}) {
    Stack s(cfg, sys, stepping);
    trace::TraceReader rd(trace_path);
    ASSERT_TRUE(rd.ok()) << rd.error();
    cpu::CoreModel core(sys, cfg, rd, *s.ifc);
    int& n = snapshots[stepping ? 0 : 1];
    core.setCheckpointHook(kEvery, [&] {
      saveSnapshot(tmpPath((stepping ? "wake_step_" : "wake_skip_") +
                           std::to_string(n++) + ".mckpt"),
                   rd, core, s);
    });
    const cpu::CoreStats cs = core.run(rd.total() * 60 + 100'000);
    straight[stepping ? 0 : 1] = outputOf(cs, s, sys);
  }
  EXPECT_EQ(sim::diffOutputs(straight[0], straight[1]), "");
  ASSERT_EQ(snapshots[0], 2);
  ASSERT_EQ(snapshots[1], 2);
  for (int i = 0; i < 2; ++i) {
    const std::string idx = std::to_string(i) + ".mckpt";
    EXPECT_EQ(fileBytes(tmpPath("wake_step_" + idx)),
              fileBytes(tmpPath("wake_skip_" + idx)))
        << "snapshot " << i << " differs";
  }

  // Resume the skipping stack from the first snapshot in a fresh stack.
  {
    Stack s(cfg, sys, /*stepping=*/false);
    trace::TraceReader rd(trace_path);
    ASSERT_TRUE(rd.ok()) << rd.error();
    cpu::CoreModel core(sys, cfg, rd, *s.ifc);
    loadSnapshot(tmpPath("wake_skip_0.mckpt"), rd, core, s);
    const cpu::CoreStats cs = core.run(rd.total() * 60 + 100'000);
    EXPECT_EQ(sim::diffOutputs(straight[0], outputOf(cs, s, sys)), "");
  }
  for (int i = 0; i < 2; ++i) {
    std::remove(tmpPath("wake_step_" + std::to_string(i) + ".mckpt").c_str());
    std::remove(tmpPath("wake_skip_" + std::to_string(i) + ".mckpt").c_str());
  }
  std::remove(trace_path.c_str());
}

/// The next `count` records of a shared source, seqs rebased to 0 — the
/// window each segment core of a sampled replay reads.
class Window final : public trace::TraceSource {
 public:
  Window(trace::TraceSource& inner, std::uint64_t count)
      : inner_(inner), remaining_(count) {}
  bool next(trace::InstrRecord& out) override {
    if (remaining_ == 0 || !inner_.next(out)) return false;
    if (!have_base_) {
      base_ = out.seq;
      have_base_ = true;
    }
    out.seq -= base_;
    --remaining_;
    return true;
  }
  void reset() override {}

 private:
  trace::TraceSource& inner_;
  std::uint64_t remaining_;
  std::uint64_t base_ = 0;
  bool have_base_ = false;
};

TEST(WakeLoop, SampledSegmentsMatchStepping) {
  // Phase-sampled replay's shape: ONE interface lives across the pass,
  // stretches are fast-forwarded without simulation, each pick runs a
  // stat-gated warmup then a measured window, and every segment gets a
  // fresh core that continues the shared clock (run's start_cycle).
  struct Pick {
    std::uint64_t skip, warm, measure;
  };
  const Pick picks[] = {{2'000, 1'000, 3'000}, {4'000, 500, 2'000},
                        {0, 0, 2'500}};
  for (const char* preset : {"MALEC", "MALEC_adaptive", "Base2ld1st"}) {
    const core::InterfaceConfig cfg = sim::presetRegistry().get(preset)();
    const core::SystemConfig sys = sim::defaultSystem();
    sim::RunOutput result[2];
    std::vector<cpu::CoreStats> segments[2];
    for (const bool stepping : {true, false}) {
      Stack s(cfg, sys, stepping);
      trace::SyntheticTraceGenerator gen(trace::workloadByName("gap"),
                                         sys.layout, 0, 5);
      Cycle clock = 0;
      trace::InstrRecord rec;
      for (const Pick& p : picks) {
        for (std::uint64_t i = 0; i < p.skip; ++i) ASSERT_TRUE(gen.next(rec));
        if (p.warm > 0) {
          energy::StatGate gate(s.ea);
          Window w(gen, p.warm);
          cpu::CoreModel core(sys, cfg, w, *s.ifc);
          const cpu::CoreStats cs = core.run(p.warm * 60 + 100'000, clock);
          clock += cs.cycles;
          segments[stepping ? 0 : 1].push_back(cs);
        }
        Window w(gen, p.measure);
        cpu::CoreModel core(sys, cfg, w, *s.ifc);
        const cpu::CoreStats cs = core.run(p.measure * 60 + 100'000, clock);
        clock += cs.cycles;
        segments[stepping ? 0 : 1].push_back(cs);
      }
      cpu::CoreStats total;
      total.cycles = clock;
      result[stepping ? 0 : 1] = outputOf(total, s, sys);
    }
    EXPECT_EQ(sim::diffOutputs(result[0], result[1]), "") << preset;
    ASSERT_EQ(segments[0].size(), segments[1].size());
    for (std::size_t i = 0; i < segments[0].size(); ++i) {
      sim::RunOutput a;
      sim::RunOutput b;
      a.core = segments[0][i];
      b.core = segments[1][i];
      EXPECT_EQ(sim::diffOutputs(a, b), "") << preset << " segment " << i;
    }
  }
}

}  // namespace
}  // namespace malec
