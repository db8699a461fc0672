// Wake-driven run loop: CoreModel::run skips quiet cycles, and the skip must
// be invisible in every simulated number.
//
// The core only skips when the interface's quietUntil() says so, and the
// MemInterface default says "never quiet". Probe below is a forwarding
// decorator that counts beginCycle() calls — CoreModel::run makes one per
// executed cycle — and forwards the quiet hooks only when told to skip, so
// a core behind a stepping Probe steps every cycle: it is the reference.
// Each test runs sim::runOne itself twice, with a stepping and a skipping
// Probe in front of the interface, and compares the outputs with
// sim::diffOutputs — over all registered presets on synthetic workloads, a
// trace replay that checkpoints and resumes, and a phase-sampled replay.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "cpu/core_model.h"
#include "energy/energy_account.h"
#include "phase/sample_plan.h"
#include "sim/differential.h"
#include "sim/experiment.h"
#include "sim/presets.h"
#include "sim/registry.h"
#include "trace/synth_generator.h"
#include "trace/trace_io.h"
#include "trace/workloads.h"

namespace malec {
namespace {

/// Forwards every call and counts beginCycle() in `executed`. A stepping
/// Probe keeps the "never quiet" default of quietUntil(), so the core
/// behind it never skips a cycle.
class Probe final : public core::MemInterface {
 public:
  Probe(core::MemInterface& inner, bool stepping, std::uint64_t& executed)
      : inner_(inner), stepping_(stepping), executed_(executed) {}

  void beginCycle(Cycle now) override {
    ++executed_;
    inner_.beginCycle(now);
  }
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
  Cycle quietUntil() const override {
    return stepping_ ? 0 : inner_.quietUntil();
  }
  void replayQuietCycles(Cycle n) override { inner_.replayQuietCycles(n); }
  const core::InterfaceStats& stats() const override { return inner_.stats(); }
  void saveState(ckpt::StateWriter& w) const override { inner_.saveState(w); }
  void loadState(ckpt::StateReader& r) override { inner_.loadState(r); }

 private:
  core::MemInterface& inner_;
  bool stepping_;
  std::uint64_t& executed_;
};

sim::InterfaceDecorator probe(bool stepping, std::uint64_t& executed) {
  return [stepping, &executed](core::MemInterface& inner) {
    return std::make_unique<Probe>(inner, stepping, executed);
  };
}

struct ProbedRun {
  sim::RunOutput out;
  std::uint64_t executed = 0;  ///< cycles the core stepped
};

ProbedRun runProbed(const sim::RunConfig& rc, bool stepping) {
  ProbedRun r;
  r.out = sim::runOne(rc, probe(stepping, r.executed));
  return r;
}

sim::RunConfig synthConfig(const core::InterfaceConfig& cfg,
                           const std::string& bench, std::uint64_t instrs,
                           std::uint64_t seed) {
  sim::RunConfig rc;
  rc.workload = trace::workloadByName(bench);
  rc.interface_cfg = cfg;
  rc.system = sim::defaultSystem();
  rc.instructions = instrs;
  rc.seed = seed;
  return rc;
}

std::string tmpPath(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

std::string fileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(WakeLoop, EveryPresetMatchesSteppingOnSynthWorkloads) {
  std::uint64_t simulated = 0;
  std::uint64_t executed = 0;
  for (const std::string& preset : sim::presetRegistry().names()) {
    const core::InterfaceConfig cfg = sim::presetRegistry().get(preset)();
    for (const char* bench : {"gcc", "mcf", "djpeg", "gap"}) {
      const sim::RunConfig rc = synthConfig(cfg, bench, 6000, 1);
      const ProbedRun ref = runProbed(rc, /*stepping=*/true);
      const ProbedRun got = runProbed(rc, /*stepping=*/false);
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
  // 300k instructions, seed 1: the cycles the wake-driven loop steps (a
  // host-side work count — it changes only when the skip logic does)
  // against the simulated cycles, which never change. The skipping Probe's
  // beginCycle count is the core's own counter.
  struct Pin {
    core::InterfaceConfig cfg;
    const char* bench;
    Cycle cycles;
    std::uint64_t executed;
  };
  const Pin pins[] = {
      {sim::presetMalec(), "mcf", 912'637, 291'462},
      {sim::presetMalec(), "gcc", 170'435, 120'332},
      {sim::presetMalec(), "djpeg", 85'800, 75'836},
      {sim::presetBase2ld1st(), "mcf", 903'988, 269'338},
  };
  for (const Pin& pin : pins) {
    const sim::RunConfig rc = synthConfig(pin.cfg, pin.bench, 300'000, 1);
    energy::EnergyAccount ea;
    std::uint64_t begin_cycles = 0;
    const sim::RunStack stack(rc.interface_cfg, rc.system, ea,
                              probe(/*stepping=*/false, begin_cycles));
    trace::SyntheticTraceGenerator gen(rc.workload, rc.system.layout,
                                       rc.instructions, rc.seed);
    cpu::CoreModel core(rc.system, rc.interface_cfg, gen, stack.ifc());
    const cpu::CoreStats cs = core.run(rc.instructions * 60 + 100'000);
    const std::string tag = pin.cfg.name + " " + pin.bench;
    EXPECT_EQ(cs.cycles, pin.cycles) << tag;
    EXPECT_EQ(core.executedCycles(), pin.executed) << tag;
    EXPECT_EQ(begin_cycles, core.executedCycles()) << tag;
  }
}

TEST(WakeLoop, TraceReplayCheckpointsAndResumesLikeStepping) {
  const std::string trace_path = tmpPath("wake_loop_mcf.mtrace");
  sim::RunConfig rc = synthConfig(sim::presetMalec(), "mcf", 12'000, 3);
  sim::captureTrace(rc, trace_path);
  rc.workload = sim::traceWorkload(trace_path);

  // Each cadence leaves its last boundary in the file: 5,000 ends at the
  // 10,000-instruction boundary, 7,000 at the 7,000 one. The skipping
  // run's checkpoint must be byte-identical to the stepping run's, and a
  // fresh skipping run resumed from it must finish like the stepping run.
  for (const std::uint64_t every : {5'000u, 7'000u}) {
    sim::RunOutput outs[2];
    std::string paths[2];
    for (const bool stepping : {true, false}) {
      const int side = stepping ? 0 : 1;
      sim::RunConfig ck = rc;
      paths[side] = tmpPath((stepping ? "wake_step_" : "wake_skip_") +
                            std::to_string(every) + ".mckpt");
      ck.ckpt_out = paths[side];
      ck.ckpt_every = every;
      outs[side] = runProbed(ck, stepping).out;
    }
    EXPECT_EQ(sim::diffOutputs(outs[0], outs[1]), "") << "every " << every;
    const std::string stepped = fileBytes(paths[0]);
    ASSERT_FALSE(stepped.empty()) << paths[0];
    EXPECT_EQ(stepped, fileBytes(paths[1])) << "checkpoint, every " << every;

    sim::RunConfig resume = rc;
    resume.start_ckpt = paths[1];
    EXPECT_EQ(sim::diffOutputs(outs[0], sim::runOne(resume)), "")
        << "resumed, every " << every;
    for (const std::string& p : paths) std::remove(p.c_str());
  }
  std::remove(trace_path.c_str());
}

TEST(WakeLoop, SampledReplayMatchesStepping) {
  // Phase-sampled replay's shape: ONE interface lives across the pass,
  // stretches are fast-forwarded without simulation, each pick runs a
  // stat-gated warmup then a measured window, and every segment gets a
  // fresh core that continues the shared clock.
  const std::string trace_path = tmpPath("wake_loop_gap.mtrace");
  sim::captureTrace(synthConfig(sim::presetMalec(), "gap", 12'000, 5),
                    trace_path);
  phase::SamplePlan plan;
  {
    trace::TraceReader rd(trace_path);
    ASSERT_TRUE(rd.ok()) << rd.error();
    plan.trace_records = rd.total();
    plan.trace_checksum = rd.expectedChecksum();
  }
  plan.interval_size = 2'000;
  plan.warmup_instructions = 1'000;
  plan.picks = {{2, 6'000}, {3, 2'000}, {5, 4'000}};
  std::string err;
  ASSERT_TRUE(phase::saveSamplePlan(plan, phase::planSidecarPath(trace_path),
                                    err))
      << err;
  // Pick 2 fast-forwards 3,000 records and warms up on 1,000; pick 3 is
  // adjacent to it and gets neither; pick 5 does both again.
  const std::vector<phase::PlanSegment> segs = plan.segments();
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0].warm_start, 3'000u);
  EXPECT_EQ(segs[0].start, 4'000u);
  EXPECT_EQ(segs[1].warm_start, segs[0].end);
  EXPECT_EQ(segs[1].start, segs[0].end);
  EXPECT_EQ(segs[2].warm_start, 9'000u);

  for (const char* preset : {"MALEC", "MALEC_WDU16", "Base2ld1st"}) {
    sim::RunConfig rc;
    rc.workload = sim::sampledWorkload(sim::traceWorkload(trace_path));
    rc.interface_cfg = sim::presetRegistry().get(preset)();
    rc.system = sim::defaultSystem();
    rc.instructions = 0;
    const ProbedRun ref = runProbed(rc, /*stepping=*/true);
    const ProbedRun got = runProbed(rc, /*stepping=*/false);
    EXPECT_EQ(sim::diffOutputs(ref.out, got.out), "") << preset;
    EXPECT_LT(got.executed, ref.executed) << preset;
  }
  std::remove(phase::planSidecarPath(trace_path).c_str());
  std::remove(trace_path.c_str());
}

}  // namespace
}  // namespace malec
