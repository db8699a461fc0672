#include "sim/experiment.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "sim/differential.h"
#include "sim/presets.h"
#include "trace/workloads.h"

namespace malec::sim {
namespace {

RunConfig quickRun(const char* bench, core::InterfaceConfig cfg,
                   std::uint64_t instrs = 20'000) {
  RunConfig rc;
  rc.workload = trace::workloadByName(bench);
  rc.interface_cfg = std::move(cfg);
  rc.system = defaultSystem();
  rc.instructions = instrs;
  rc.seed = 1;
  return rc;
}

TEST(Experiment, RunsToCompletion) {
  const auto out = runOne(quickRun("eon", presetMalec()));
  EXPECT_EQ(out.instructions, 20'000u);
  EXPECT_GT(out.cycles, 0u);
  EXPECT_GT(out.ipc, 0.0);
  EXPECT_GT(out.dynamic_pj, 0.0);
  EXPECT_GT(out.leakage_pj, 0.0);
  EXPECT_EQ(out.benchmark, "eon");
  EXPECT_EQ(out.config, "MALEC");
}

// A default-constructed InterfaceConfig calls itself MALEC, so it must
// simulate MALEC: every default is the preset's value.
TEST(Experiment, DefaultInterfaceConfigIsTheMalecPreset) {
  for (const char* bench : {"gcc", "mcf"}) {
    RunConfig rc = quickRun(bench, presetMalec(), 6'000);
    const RunOutput preset = runOne(rc);
    rc.interface_cfg = core::InterfaceConfig{};
    EXPECT_EQ(diffOutputs(preset, runOne(rc)), "") << bench;
  }
}

TEST(Experiment, Deterministic) {
  const auto a = runOne(quickRun("gcc", presetMalec()));
  const auto b = runOne(quickRun("gcc", presetMalec()));
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_DOUBLE_EQ(a.dynamic_pj, b.dynamic_pj);
  EXPECT_DOUBLE_EQ(a.way_coverage, b.way_coverage);
}

TEST(Experiment, SeedChangesOutcome) {
  auto rc = quickRun("gcc", presetMalec());
  const auto a = runOne(rc);
  rc.seed = 2;
  const auto b = runOne(rc);
  EXPECT_NE(a.cycles, b.cycles);
}

TEST(Experiment, MatrixRowCoversAllConfigs) {
  const auto outs = runMatrixParallel({trace::workloadByName("eon")},
                                      fig4Configs(), 10'000, 1, 1)[0];
  ASSERT_EQ(outs.size(), 5u);
  EXPECT_EQ(outs[0].config, "Base1ldst");
  EXPECT_EQ(outs[1].config, "Base2ld1st_1cycleL1");
  EXPECT_EQ(outs[2].config, "Base2ld1st");
  EXPECT_EQ(outs[3].config, "MALEC");
  EXPECT_EQ(outs[4].config, "MALEC_3cycleL1");
}

TEST(Experiment, DerivedMetricsConsistent) {
  const auto out = runOne(quickRun("gap", presetMalec()));
  EXPECT_NEAR(out.total_pj, out.dynamic_pj + out.leakage_pj, 1e-6);
  EXPECT_NEAR(out.way_coverage, out.ifc.wayCoverage(), 1e-12);
  EXPECT_GE(out.way_coverage, 0.0);
  EXPECT_LE(out.way_coverage, 1.0);
  EXPECT_LE(out.ifc.load_l1_hits + out.ifc.load_l1_misses,
            out.ifc.load_l1_accesses + 1);
}

TEST(Experiment, BaselineHasNoWayCoverage) {
  const auto out = runOne(quickRun("gap", presetBase1ldst()));
  EXPECT_DOUBLE_EQ(out.way_coverage, 0.0);
  EXPECT_EQ(out.ifc.reduced_accesses, 0u);
}

TEST(Experiment, InstructionBudgetEnvOverride) {
  ::setenv("MALEC_INSTR", "12345", 1);
  EXPECT_EQ(instructionBudget(999), 12345u);
  // Empty and "0" mean "use the default", like an unset variable.
  ::setenv("MALEC_INSTR", "", 1);
  EXPECT_EQ(instructionBudget(999), 999u);
  ::setenv("MALEC_INSTR", "0", 1);
  EXPECT_EQ(instructionBudget(999), 999u);
  ::unsetenv("MALEC_INSTR");
  EXPECT_EQ(instructionBudget(999), 999u);
}

TEST(ExperimentDeathTest, MalformedInstructionBudgetAborts) {
  // atoll would have turned these into 1 / 0 silently — a 1e6-instruction
  // request quietly simulating ONE instruction is the bug class under test.
  EXPECT_DEATH(
      {
        ::setenv("MALEC_INSTR", "1e6", 1);
        (void)instructionBudget(999);
      },
      "invalid MALEC_INSTR: '1e6'");
  EXPECT_DEATH(
      {
        ::setenv("MALEC_INSTR", "abc", 1);
        (void)instructionBudget(999);
      },
      "invalid MALEC_INSTR: 'abc'");
  EXPECT_DEATH(
      {
        ::setenv("MALEC_INSTR", "-5", 1);
        (void)instructionBudget(999);
      },
      "invalid MALEC_INSTR: '-5'");
}

TEST(ExperimentDeathTest, MalformedParallelJobsAborts) {
  EXPECT_DEATH(
      {
        ::setenv("MALEC_JOBS", "four", 1);
        (void)parallelJobs(3);
      },
      "invalid MALEC_JOBS: 'four'");
}

/// Forwards every call except drainCompletions, which swallows every
/// completed load: the core behind it never retires a load again.
class DropCompletions final : public core::MemInterface {
 public:
  explicit DropCompletions(core::MemInterface& inner) : inner_(inner) {}

  void beginCycle(Cycle now) override { inner_.beginCycle(now); }
  bool canAcceptLoad() const override { return inner_.canAcceptLoad(); }
  bool canAcceptStore() const override { return inner_.canAcceptStore(); }
  bool submit(const core::MemOp& op) override { return inner_.submit(op); }
  void notifyStoreCommit(SeqNum seq) override {
    inner_.notifyStoreCommit(seq);
  }
  void endCycle(Cycle now) override { inner_.endCycle(now); }
  void drainCompletions(Cycle now, std::vector<SeqNum>&) override {
    std::vector<SeqNum> dropped;
    inner_.drainCompletions(now, dropped);
  }
  bool quiesced() const override { return inner_.quiesced(); }
  const core::InterfaceStats& stats() const override {
    return inner_.stats();
  }
  void saveState(ckpt::StateWriter& w) const override { inner_.saveState(w); }
  void loadState(ckpt::StateReader& r) override { inner_.loadState(r); }

 private:
  core::MemInterface& inner_;
};

// A run whose pipeline stops retiring ends at the cycle bound; runOne must
// refuse it rather than return a RunOutput of the truncated prefix.
TEST(ExperimentDeathTest, RunThatStopsRetiringAborts) {
  const RunConfig rc = quickRun("gcc", presetMalec(), 300);
  const InterfaceDecorator drop = [](core::MemInterface& inner) {
    return std::make_unique<DropCompletions>(inner);
  };
  EXPECT_DEATH((void)runOne(rc, drop), "run retired [0-9]+ of its 300 "
                                       "instructions before the cycle bound");
}

TEST(Experiment, ParseU64Strict) {
  EXPECT_EQ(parseU64Strict("0", "x"), 0u);
  EXPECT_EQ(parseU64Strict("42", "x"), 42u);
  EXPECT_EQ(parseU64Strict("18446744073709551615", "x"),
            18446744073709551615ull);
}

TEST(ExperimentDeathTest, ParseU64StrictRejectsGarbage) {
  // The strtoull failure modes the old flag parsing accepted silently.
  EXPECT_DEATH((void)parseU64Strict("10abc", "--instr"),
               "invalid --instr: '10abc'");
  EXPECT_DEATH((void)parseU64Strict("abc", "--seed"),
               "invalid --seed: 'abc'");
  EXPECT_DEATH((void)parseU64Strict("", "--jobs"), "invalid --jobs");
  EXPECT_DEATH((void)parseU64Strict(" 7", "--jobs"), "invalid --jobs");
  EXPECT_DEATH((void)parseU64Strict("+7", "--jobs"), "invalid --jobs");
  // One past uint64 max must overflow-abort, not wrap.
  EXPECT_DEATH((void)parseU64Strict("18446744073709551616", "n"),
               "invalid n");
}

TEST(Experiment, ParallelMatchesSerialBitForBit) {
  const auto wl = trace::workloadByName("gcc");
  const auto cfgs = fig4Configs();
  const auto serial = runMatrixParallel({wl}, cfgs, 10'000, 3, 1)[0];
  const auto parallel = runMatrixParallel({wl}, cfgs, 10'000, 3, 4)[0];
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].config, parallel[i].config) << i;
    EXPECT_EQ(serial[i].cycles, parallel[i].cycles) << i;
    EXPECT_EQ(serial[i].instructions, parallel[i].instructions) << i;
    // Bit-identical doubles, not just approximately equal: every run owns
    // its accounting, so parallel execution must not perturb a single bit.
    EXPECT_EQ(serial[i].ipc, parallel[i].ipc) << i;
    EXPECT_EQ(serial[i].dynamic_pj, parallel[i].dynamic_pj) << i;
    EXPECT_EQ(serial[i].leakage_pj, parallel[i].leakage_pj) << i;
    EXPECT_EQ(serial[i].total_pj, parallel[i].total_pj) << i;
    EXPECT_EQ(serial[i].way_coverage, parallel[i].way_coverage) << i;
    EXPECT_EQ(serial[i].energy_detail.toTable(),
              parallel[i].energy_detail.toTable())
        << i;
  }
}

TEST(Experiment, RunManyParallelKeepsInputOrder) {
  std::vector<RunConfig> rcs;
  for (const char* bench : {"gcc", "eon", "gap", "mcf"})
    rcs.push_back(quickRun(bench, presetMalec(), 5'000));
  const auto outs = runManyParallel(rcs, 3);
  ASSERT_EQ(outs.size(), 4u);
  EXPECT_EQ(outs[0].benchmark, "gcc");
  EXPECT_EQ(outs[1].benchmark, "eon");
  EXPECT_EQ(outs[2].benchmark, "gap");
  EXPECT_EQ(outs[3].benchmark, "mcf");
  for (const auto& o : outs) EXPECT_EQ(o.instructions, 5'000u);
}

TEST(Experiment, ParallelJobsEnvOverride) {
  ::setenv("MALEC_JOBS", "7", 1);
  EXPECT_EQ(parallelJobs(), 7u);
  ::setenv("MALEC_JOBS", "0", 1);
  EXPECT_EQ(parallelJobs(3), 3u);  // 0 = "use the default"
  ::unsetenv("MALEC_JOBS");
  EXPECT_GE(parallelJobs(), 1u);
  EXPECT_EQ(parallelJobs(2), 2u);
}

// The default worker count is the CPUs the process may run on, as `nproc`
// counts them, not the host's: pinned to one CPU, a sweep runs one worker.
TEST(Experiment, ParallelJobsCountsTheAffinityMask) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  ASSERT_EQ(::sched_getaffinity(0, sizeof mask, &mask), 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) {
      CPU_SET(c, &one);
      break;
    }
  }
  ::unsetenv("MALEC_JOBS");
  ASSERT_EQ(::sched_setaffinity(0, sizeof one, &one), 0);
  const unsigned pinned = parallelJobs();
  ::setenv("MALEC_JOBS", "3", 1);
  const unsigned overridden = parallelJobs();
  ::unsetenv("MALEC_JOBS");
  ASSERT_EQ(::sched_setaffinity(0, sizeof mask, &mask), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(overridden, 3u) << "MALEC_JOBS still overrides the mask";
  EXPECT_EQ(parallelJobs(), static_cast<unsigned>(CPU_COUNT(&mask)));
}

TEST(Experiment, EnergyDetailExported) {
  const auto out = runOne(quickRun("eon", presetMalec()));
  EXPECT_GT(out.energy_detail.get("total.dynamic_pj"), 0.0);
  EXPECT_GT(out.energy_detail.get("count.utlb.search"), 0.0);
}

}  // namespace
}  // namespace malec::sim
