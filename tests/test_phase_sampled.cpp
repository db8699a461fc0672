// Phase-sampled replay through runOne: the determinism contract the docs
// claim (bit-identical reports across repeated and parallel runs), the
// plan/trace binding, the warmup's exclusion from counters and energy, and
// the death tests for a corrupt measured window and corrupt or mismatched
// .mplan sidecars. Then the phase_sampled suite over a capture directory:
// its cells against direct runs, its job-count determinism and its
// refusals.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "phase/planner.h"
#include "phase/sample_plan.h"
#include "sim/differential.h"
#include "sim/presets.h"
#include "sim/registry.h"
#include "sim/reporting.h"
#include "sim/suite.h"
#include "trace/workloads.h"

namespace malec::sim {
namespace {

std::string tmpPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

/// Capture a synthetic benchmark and write a sample plan next to it.
/// Returns the trace path (plan at the .mplan sidecar path).
std::string captureWithPlan(const char* bench, const char* name,
                            std::uint64_t instrs,
                            std::uint64_t interval_size,
                            std::uint32_t phases, std::uint64_t warmup) {
  const std::string path = tmpPath(name);
  RunConfig rc;
  rc.workload = trace::workloadByName(bench);
  rc.interface_cfg = presetMalec();
  rc.system = defaultSystem();
  rc.instructions = instrs;
  captureTrace(rc, path);
  phase::PlanParams params;
  params.interval_size = interval_size;
  params.phases = phases;
  params.warmup_instructions = warmup;
  phase::SamplePlan plan;
  std::string err;
  EXPECT_TRUE(phase::buildSamplePlan(path, params, plan, err)) << err;
  EXPECT_TRUE(
      phase::saveSamplePlan(plan, phase::planSidecarPath(path), err))
      << err;
  return path;
}

RunConfig sampledConfig(const std::string& trace_path) {
  RunConfig rc;
  rc.workload = sampledWorkload(traceWorkload(trace_path));
  rc.interface_cfg = presetMalec();
  rc.system = defaultSystem();
  rc.instructions = 0;  // the plan decides what is simulated
  return rc;
}

TEST(PhaseSampled, BitIdenticalAcrossRepeatedAndParallelRuns) {
  const std::string path =
      captureWithPlan("gcc", "det.mtrace", 20'000, 4'000, 3, 1'000);
  const RunConfig rc = sampledConfig(path);

  // The docs-claimed determinism contract: the same SamplePlan twice in
  // series, then the same runs through the parallel pool, all bit-equal.
  const RunOutput serial_a = runOne(rc);
  const RunOutput serial_b = runOne(rc);
  EXPECT_EQ(diffOutputs(serial_a, serial_b), "");

  const auto outs = runManyParallel({rc, rc, rc, rc}, 4);
  ASSERT_EQ(outs.size(), 4u);
  for (const auto& o : outs) EXPECT_EQ(diffOutputs(serial_a, o), "");

  EXPECT_EQ(serial_a.benchmark, "trace:det:sampled");
  // The estimate reports the FULL trace's instruction count...
  EXPECT_EQ(serial_a.instructions, 20'000u);
  EXPECT_GT(serial_a.cycles, 0u);
  EXPECT_GT(serial_a.total_pj, 0.0);
  std::remove(phase::planSidecarPath(path).c_str());
  std::remove(path.c_str());
}

TEST(PhaseSampled, EstimateTracksFullReplay) {
  const std::string path =
      captureWithPlan("gcc", "track.mtrace", 40'000, 5'000, 4, 5'000);
  RunConfig full;
  full.workload = traceWorkload(path);
  full.interface_cfg = presetMalec();
  full.system = defaultSystem();
  full.instructions = 0;
  const RunOutput o_full = runOne(full);
  const RunOutput o_smpl = runOne(sampledConfig(path));

  // Not bit-equal (it is an estimate) but close: generous 20% bands keep
  // the test robust while still catching a broken combination rule, which
  // is off by integer factors when wrong.
  EXPECT_EQ(o_smpl.instructions, o_full.instructions);
  EXPECT_NEAR(o_smpl.ipc, o_full.ipc, 0.2 * o_full.ipc);
  EXPECT_NEAR(o_smpl.total_pj, o_full.total_pj, 0.2 * o_full.total_pj);
  EXPECT_NEAR(o_smpl.l1_load_miss_rate, o_full.l1_load_miss_rate,
              0.2 * o_full.l1_load_miss_rate + 0.01);
  std::remove(phase::planSidecarPath(path).c_str());
  std::remove(path.c_str());
}

TEST(PhaseSampled, WarmupIsExcludedFromStats) {
  // Two plans over one trace, identical picks, one with warmup: the
  // measured instruction/energy totals must reflect only the picked
  // intervals either way (warmup primes state but never enters counts), so
  // the reported load count stays close while cycles/misses improve.
  const std::string path =
      captureWithPlan("gcc", "warm.mtrace", 20'000, 4'000, 2, 0);
  const RunOutput cold = runOne(sampledConfig(path));

  phase::SamplePlan plan;
  std::string err;
  ASSERT_TRUE(
      phase::loadSamplePlan(phase::planSidecarPath(path), plan, err));
  plan.warmup_instructions = 4'000;
  ASSERT_TRUE(
      phase::saveSamplePlan(plan, phase::planSidecarPath(path), err));
  const RunOutput warm = runOne(sampledConfig(path));

  // Same picks, same weights -> the scaled load estimate is identical;
  // only the state (and with it cycles/misses) may differ.
  EXPECT_EQ(cold.core.loads, warm.core.loads);
  EXPECT_EQ(cold.instructions, warm.instructions);
  std::remove(phase::planSidecarPath(path).c_str());
  std::remove(path.c_str());
}

TEST(PhaseSampled, WarmupEnergyEventsMatchWarmupCounters) {
  // Every L1 access charges one l1.ctrl event and counts one load or MBE
  // write, so the two stay equal only if warmup leaves the energy events
  // out exactly where it leaves the interface counters out. Each estimate
  // is rounded once, hence the slack of 1.
  const std::string path =
      captureWithPlan("gcc", "ctrl.mtrace", 20'000, 4'000, 3, 2'000);
  const RunOutput o = runOne(sampledConfig(path));
  const double accesses = static_cast<double>(o.ifc.load_l1_accesses +
                                              o.ifc.write_l1_accesses);
  EXPECT_GT(accesses, 0.0);
  EXPECT_NEAR(o.energy_detail.get("count.l1.ctrl"), accesses, 1.0);
  std::remove(phase::planSidecarPath(path).c_str());
  std::remove(path.c_str());
}

TEST(PhaseSampled, RegistryScanAutoRegistersSampledVariant) {
  const std::string dir = std::string(::testing::TempDir()) + "smp_scan";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  // One capture WITH a valid sidecar plan, one without.
  {
    RunConfig rc;
    rc.workload = trace::workloadByName("gcc");
    rc.interface_cfg = presetMalec();
    rc.system = defaultSystem();
    rc.instructions = 8'000;
    captureTrace(rc, dir + "/planned.mtrace");
    captureTrace(rc, dir + "/planless.mtrace");
    phase::PlanParams params;
    params.interval_size = 2'000;
    params.phases = 2;
    phase::SamplePlan plan;
    std::string err;
    ASSERT_TRUE(
        phase::buildSamplePlan(dir + "/planned.mtrace", params, plan, err))
        << err;
    ASSERT_TRUE(
        phase::saveSamplePlan(plan, dir + "/planned.mplan", err))
        << err;
  }
  registerTraceWorkloadsFrom(dir);
  EXPECT_TRUE(workloadRegistry().has("trace:planned"));
  EXPECT_TRUE(workloadRegistry().has("trace:planned:sampled"));
  EXPECT_TRUE(workloadRegistry().has("trace:planless"));
  // No sidecar, no sampled variant.
  EXPECT_FALSE(workloadRegistry().has("trace:planless:sampled"));
  const auto& smp = workloadRegistry().get("trace:planned:sampled");
  EXPECT_TRUE(smp.isSampled());
  EXPECT_EQ(smp.sample_plan_path, dir + "/planned.mplan");
}

TEST(PhaseSampledDeathTest, CorruptMeasuredWindowAborts) {
  // A byte flipped inside a simulated stretch must be a hard error, not a
  // silently different simulation: the replay's running checksum, held
  // against the header's when the tail is verified, catches it.
  const std::string path =
      captureWithPlan("gcc", "wcorrupt.mtrace", 30'000, 5'000, 3, 2'000);
  const RunConfig rc = sampledConfig(path);

  phase::SamplePlan plan;
  std::string err;
  ASSERT_TRUE(loadSamplePlan(phase::planSidecarPath(path), plan, err)) << err;
  // Flip a vaddr byte (stays decodable) inside the FIRST pick's window.
  const long record =
      static_cast<long>(plan.picks[0].interval_index * plan.interval_size) +
      7;
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  std::fseek(f, 52 + record * 26 + 9, SEEK_SET);
  const int orig = std::fgetc(f);
  std::fseek(f, 52 + record * 26 + 9, SEEK_SET);
  std::fputc(orig ^ 0xFF, f);
  std::fclose(f);
  EXPECT_DEATH((void)runOne(rc), "record checksum mismatch");
  std::remove(phase::planSidecarPath(path).c_str());
  std::remove(path.c_str());
}

TEST(PhaseSampledDeathTest, MissingPlanSidecarAbortsWithHint) {
  const std::string path = tmpPath("noplan.mtrace");
  RunConfig rc;
  rc.workload = trace::workloadByName("gcc");
  rc.interface_cfg = presetMalec();
  rc.system = defaultSystem();
  rc.instructions = 1'000;
  captureTrace(rc, path);
  EXPECT_DEATH((void)sampledWorkload(traceWorkload(path)),
               "trace_tools phases");
  std::remove(path.c_str());
}

TEST(PhaseSampledDeathTest, TruncatedPlanAborts) {
  const std::string path =
      captureWithPlan("gcc", "trunc_run.mtrace", 10'000, 2'000, 2, 500);
  const std::string plan_path = phase::planSidecarPath(path);
  // Chop the last byte off the plan.
  std::FILE* f = std::fopen(plan_path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<char> bytes(static_cast<std::size_t>(size));
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  f = std::fopen(plan_path.c_str(), "wb");
  std::fwrite(bytes.data(), 1, bytes.size() - 1, f);
  std::fclose(f);
  EXPECT_DEATH((void)sampledWorkload(traceWorkload(path)), "truncated");
  std::remove(plan_path.c_str());
  std::remove(path.c_str());
}

TEST(PhaseSampledDeathTest, CorruptPlanAborts) {
  const std::string path =
      captureWithPlan("gcc", "corrupt_run.mtrace", 10'000, 2'000, 2, 500);
  const std::string plan_path = phase::planSidecarPath(path);
  std::FILE* f = std::fopen(plan_path.c_str(), "r+b");
  std::fseek(f, 64 + 2, SEEK_SET);  // inside the first pick entry
  const int orig = std::fgetc(f);
  std::fseek(f, 64 + 2, SEEK_SET);
  std::fputc(orig ^ 0xFF, f);
  std::fclose(f);
  EXPECT_DEATH((void)sampledWorkload(traceWorkload(path)),
               "checksum mismatch");
  std::remove(plan_path.c_str());
  std::remove(path.c_str());
}

TEST(PhaseSampledDeathTest, PlanFromDifferentTraceAborts) {
  // Build the plan from one capture, apply it to a longer one: the
  // record-count/checksum binding must refuse.
  const std::string path =
      captureWithPlan("gcc", "bind.mtrace", 10'000, 2'000, 2, 500);
  RunConfig other;
  other.workload = trace::workloadByName("gcc");
  other.interface_cfg = presetMalec();
  other.system = defaultSystem();
  other.instructions = 12'000;
  captureTrace(other, path);  // overwrite with a different capture
  RunConfig rc;
  rc.workload = traceWorkload(path);
  rc.workload.sample_plan_path = phase::planSidecarPath(path);
  rc.workload.name += ":sampled";
  rc.interface_cfg = presetMalec();
  rc.system = defaultSystem();
  rc.instructions = 0;
  EXPECT_DEATH((void)runOne(rc), "different trace");
  std::remove(phase::planSidecarPath(path).c_str());
  std::remove(path.c_str());
}

TEST(PhaseSampledDeathTest, InstructionCapDoesNotCompose) {
  const std::string path =
      captureWithPlan("gcc", "cap.mtrace", 10'000, 2'000, 2, 500);
  RunConfig rc = sampledConfig(path);
  rc.instructions = 5'000;
  EXPECT_DEATH((void)runOne(rc), "instruction cap");
  std::remove(phase::planSidecarPath(path).c_str());
  std::remove(path.c_str());
}

// --- the phase_sampled suite -------------------------------------------------

/// Test sink keeping every table a suite emits.
struct TableSink : ResultSink {
  SuiteInfo info;
  std::vector<Table> tables;
  std::vector<int> precisions;

  void beginSuite(const SuiteInfo& i) override { info = i; }
  void table(const Table& t, const std::string&, int precision) override {
    tables.push_back(t);
    precisions.push_back(precision);
  }
  void note(const std::string&) override {}
  void endSuite() override {}
};

/// A capture directory registered once per process: "ps_gap" with a plan
/// beside "ps_gcc" without one. The "ps_" filter keeps the suite to this
/// directory whatever else the binary registered.
const std::string& phaseSuiteDir() {
  static const std::string dir = [] {
    const std::string d = tmpPath("ps_suite");
    std::filesystem::remove_all(d);
    std::filesystem::create_directories(d);
    (void)captureWithPlan("gap", "ps_suite/ps_gap.mtrace", 12'000, 2'000, 3,
                          500);
    RunConfig rc;
    rc.workload = trace::workloadByName("gcc");
    rc.interface_cfg = presetMalec();
    rc.system = defaultSystem();
    rc.instructions = 4'000;
    captureTrace(rc, d + "/ps_gcc.mtrace");
    registerTraceWorkloadsFrom(d);
    return d;
  }();
  return dir;
}

bool sameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(PhaseSampledSuite, CellsEqualDirectRunsAtEveryJobCount) {
  (void)phaseSuiteDir();
  SuiteOptions opts;
  opts.progress = false;
  opts.workload_filter = "ps_";
  opts.jobs = 1;
  TableSink serial;
  runSuite(specRegistry().get("phase_sampled"), opts, {&serial});
  opts.jobs = 4;
  TableSink pooled;
  runSuite(specRegistry().get("phase_sampled"), opts, {&pooled});

  ASSERT_EQ(serial.tables.size(), 3u);
  ASSERT_EQ(pooled.tables.size(), 3u);
  for (std::size_t t = 0; t < serial.tables.size(); ++t)
    EXPECT_EQ(serial.tables[t].render(serial.precisions[t]),
              pooled.tables[t].render(pooled.precisions[t]));
  // Whole-stream: the sampled rows leave no room for a budget.
  EXPECT_EQ(serial.info.instructions, 0u);

  // The planless gcc capture selects no sampled replay, so no row.
  const std::vector<std::string> rows = {"trace:ps_gap",
                                         "trace:ps_gap:sampled"};
  for (const Table& t : serial.tables) {
    ASSERT_EQ(t.rows().size(), rows.size()) << t.title();
    for (std::size_t r = 0; r < rows.size(); ++r)
      EXPECT_EQ(t.rows()[r].label, rows[r]);
  }

  // The same arithmetic on direct runs, bit for bit.
  const std::vector<core::InterfaceConfig> cfgs = {
      presetBase1ldst(), presetBase2ld1st(), presetMalec()};
  std::vector<std::vector<RunOutput>> outs(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (const auto& cfg : cfgs) {
      RunConfig rc;
      rc.workload = workloadRegistry().get(rows[r]);
      rc.interface_cfg = cfg;
      rc.system = defaultSystem();
      rc.instructions = 0;
      outs[r].push_back(runOne(rc));
    }
  }
  const Table& ipc = serial.tables[0];
  const Table& energy = serial.tables[1];
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
      const RunOutput& o = outs[r][c];
      const RunOutput& full = outs[0][c];
      EXPECT_TRUE(sameBits(ipc.rows()[r].values[2 * c], o.ipc)) << r << c;
      EXPECT_TRUE(sameBits(ipc.rows()[r].values[2 * c + 1],
                           100.0 * (o.ipc - full.ipc) / full.ipc))
          << r << c;
      EXPECT_TRUE(sameBits(energy.rows()[r].values[2 * c], o.total_pj * 1e-6))
          << r << c;
      EXPECT_TRUE(sameBits(energy.rows()[r].values[2 * c + 1],
                           100.0 * (o.total_pj - full.total_pj) /
                               full.total_pj))
          << r << c;
    }
  }
  // A full row is its own reference.
  for (std::size_t c = 0; c < cfgs.size(); ++c)
    EXPECT_EQ(ipc.rows()[0].values[2 * c + 1], 0.0);

  // The cost ratio is plan arithmetic: trace records over simulated
  // records, warmup included; a full replay simulates every record.
  phase::SamplePlan plan;
  std::string err;
  ASSERT_TRUE(phase::loadSamplePlan(
      workloadRegistry().get(rows[1]).sample_plan_path, plan, err))
      << err;
  const auto records = static_cast<double>(plan.trace_records);
  const auto simulated = static_cast<double>(plan.simulatedInstructions());
  const Table& cost = serial.tables[2];
  EXPECT_TRUE(sameBits(cost.rows()[0].values[0], records));
  EXPECT_TRUE(sameBits(cost.rows()[0].values[1], records));
  EXPECT_TRUE(sameBits(cost.rows()[0].values[2], 1.0));
  EXPECT_TRUE(sameBits(cost.rows()[1].values[0], records));
  EXPECT_TRUE(sameBits(cost.rows()[1].values[1], simulated));
  EXPECT_TRUE(sameBits(cost.rows()[1].values[2], records / simulated));
  EXPECT_GT(records / simulated, 1.0);
}

TEST(PhaseSampledSuiteDeathTest, InstructionBudgetIsRefused) {
  (void)phaseSuiteDir();
  SuiteOptions opts;
  opts.progress = false;
  opts.workload_filter = "ps_";
  opts.instructions = 1'000;
  EXPECT_DEATH(runSuite(specRegistry().get("phase_sampled"), opts, {}),
               "replays whole traces/plans.*drop --instr");
}

TEST(PhaseSampledSuiteDeathTest, FilterSplittingAPairIsRefused) {
  (void)phaseSuiteDir();
  SuiteOptions opts;
  opts.progress = false;
  opts.workload_filter = "ps_gap:";
  EXPECT_DEATH(runSuite(specRegistry().get("phase_sampled"), opts, {}),
               "keeps 'trace:ps_gap:sampled' but drops 'trace:ps_gap'");
}

// With captures registered but none carrying a plan that binds, the
// sampled selector expands to nothing: the suite aborts before any
// simulation, naming each capture with loadBoundPlan's reason. The
// threadsafe style runs the statement in a fresh process, whose registry
// holds only this directory.
TEST(PhaseSampledSuiteDeathTest, NoUsablePlanNamesEachCapture) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = tmpPath("ps_noplan");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string stale =
      captureWithPlan("gcc", "ps_noplan/np_stale.mtrace", 6'000, 2'000, 2, 0);
  RunConfig rc;
  rc.workload = trace::workloadByName("mcf");
  rc.interface_cfg = presetMalec();
  rc.system = defaultSystem();
  rc.instructions = 3'000;
  captureTrace(rc, dir + "/np_bare.mtrace");
  rc.instructions = 7'000;
  captureTrace(rc, stale);  // the plan now binds to another trace
  SuiteOptions opts;
  opts.progress = false;
  EXPECT_DEATH(
      {
        ::unsetenv("MALEC_TRACE_DIR");
        registerTraceWorkloadsFrom(dir);
        runSuite(specRegistry().get("phase_sampled"), opts, {});
      },
      "no registered capture has a usable .mplan sidecar.*"
      "trace:np_bare: cannot open '.*np_bare.mplan'.*"
      "trace:np_stale: .*computed from a different trace");
}

}  // namespace
}  // namespace malec::sim
