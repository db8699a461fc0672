// End-to-end integration tests: whole-stack simulations asserting the
// paper's qualitative results (the quantitative sweeps live in bench/).
#include <gtest/gtest.h>

#include "sim/experiment.h"
#include "sim/presets.h"
#include "trace/workloads.h"

namespace malec::sim {
namespace {

constexpr std::uint64_t kInstr = 40'000;

struct Bundle {
  RunOutput base1, base2, malec;
};

Bundle runBundle(const char* bench) {
  const auto outs = runMatrixParallel(
      {trace::workloadByName(bench)},
      {presetBase1ldst(), presetBase2ld1st(), presetMalec()}, kInstr, 1,
      1)[0];
  return Bundle{outs[0], outs[1], outs[2]};
}

TEST(Integration, MalecFasterThanBase1OnLocalWorkloads) {
  for (const char* bench : {"gcc", "gap", "djpeg", "eon"}) {
    const auto b = runBundle(bench);
    EXPECT_LT(b.malec.cycles, b.base1.cycles) << bench;
  }
}

TEST(Integration, MalecCloseToBase2Performance) {
  // Paper VI-B: MALEC is within a few percent of the physically
  // multi-ported Base2ld1st.
  for (const char* bench : {"gcc", "djpeg"}) {
    const auto b = runBundle(bench);
    const double gap = static_cast<double>(b.malec.cycles) /
                       static_cast<double>(b.base2.cycles);
    EXPECT_LT(gap, 1.10) << bench;
  }
}

TEST(Integration, MalecSavesEnergyBase2Wastes) {
  // Paper Fig. 4b: Base2ld1st costs more total energy than Base1ldst;
  // MALEC costs less.
  for (const char* bench : {"gcc", "gap", "djpeg", "eon", "mesa"}) {
    const auto b = runBundle(bench);
    EXPECT_GT(b.base2.total_pj, b.base1.total_pj * 1.15) << bench;
    EXPECT_LT(b.malec.total_pj, b.base1.total_pj * 0.95) << bench;
  }
}

TEST(Integration, WayCoverageHighOnLocalWorkloads) {
  // Paper Sec. V/VI-C: 94 % coverage on average.
  for (const char* bench : {"gcc", "djpeg", "gap"}) {
    const auto out = runOne([&] {
      RunConfig rc;
      rc.workload = trace::workloadByName(bench);
      rc.interface_cfg = presetMalec();
      rc.system = defaultSystem();
      rc.instructions = kInstr;
      return rc;
    }());
    EXPECT_GT(out.way_coverage, 0.80) << bench;
  }
}

TEST(Integration, StreamingWorkloadDefeatsWayDetermination) {
  // Paper VI-D: way prediction efficiency collapses for streaming mcf.
  RunConfig rc;
  rc.workload = trace::workloadByName("mcf");
  rc.interface_cfg = presetMalec();
  rc.system = defaultSystem();
  rc.instructions = kInstr;
  const auto out = runOne(rc);
  EXPECT_LT(out.way_coverage, 0.75);
  EXPECT_GT(out.l1_load_miss_rate, 0.10);  // ~7x the typical rate
}

TEST(Integration, FeedbackRaisesCoverage) {
  // Paper Sec. V: last-entry feedback lifts coverage substantially. Needs
  // enough instructions for TLB churn to build up (the repairs target way
  // information lost to TLB evictions).
  RunConfig rc;
  rc.workload = trace::workloadByName("gcc");
  rc.system = defaultSystem();
  rc.instructions = 60'000;
  rc.interface_cfg = presetMalecNoFeedback();
  const auto without = runOne(rc);
  rc.interface_cfg = presetMalec();
  const auto with = runOne(rc);
  EXPECT_GT(with.way_coverage, without.way_coverage + 0.03);
}

TEST(Integration, WtBeatsWduOnEnergy) {
  // Paper VI-C: substituting the WT with a WDU costs energy.
  RunConfig rc;
  rc.workload = trace::workloadByName("gcc");
  rc.system = defaultSystem();
  rc.instructions = kInstr;
  rc.interface_cfg = presetMalec();
  const auto wt = runOne(rc);
  rc.interface_cfg = presetMalecWdu(16);
  const auto wdu = runOne(rc);
  EXPECT_GT(wdu.total_pj, wt.total_pj);
  EXPECT_LT(wdu.way_coverage, wt.way_coverage);
}

TEST(Integration, MergingContributesSpeedup) {
  // Paper VI-B: disabling load merging costs performance on merge-friendly
  // workloads (gap/equake).
  RunConfig rc;
  rc.workload = trace::workloadByName("gap");
  rc.system = defaultSystem();
  rc.instructions = kInstr;
  rc.interface_cfg = presetMalec();
  const auto with = runOne(rc);
  rc.interface_cfg = presetMalecNoMerge();
  const auto without = runOne(rc);
  EXPECT_GT(with.merged_load_fraction, 0.03);
  EXPECT_GE(without.cycles, with.cycles);
  EXPECT_GT(without.dynamic_pj, with.dynamic_pj);
}

TEST(Integration, LatencyVariantsOrdered) {
  // Fig. 4a: 1-cycle Base2 fastest; 3-cycle MALEC slower than 2-cycle.
  const auto outs = runMatrixParallel({trace::workloadByName("gcc")},
                                      fig4Configs(), kInstr, 1, 1)[0];
  EXPECT_LT(outs[1].cycles, outs[2].cycles);  // Base2 1cyc < Base2 2cyc
  EXPECT_LT(outs[3].cycles, outs[4].cycles);  // MALEC 2cyc < MALEC 3cyc
}

TEST(Integration, EnergyAccountingBalances) {
  // The per-event breakdown must sum to the reported dynamic total.
  RunConfig rc;
  rc.workload = trace::workloadByName("eon");
  rc.interface_cfg = presetMalec();
  rc.system = defaultSystem();
  rc.instructions = kInstr;
  const auto out = runOne(rc);
  double sum = 0.0;
  for (const auto& [k, v] : out.energy_detail.all())
    if (k.rfind("dyn_pj.", 0) == 0) sum += v;
  EXPECT_NEAR(sum, out.dynamic_pj, out.dynamic_pj * 1e-9);
}

}  // namespace
}  // namespace malec::sim
