// What a coverage-free streaming phase costs MALEC, and the scaled Fig. 2a
// configuration. The paper's Sec. VI-D suggests run-time bypassing so that
// streaming phases stop paying for way determination; this repository does
// not model such a bypass. MALEC_noWayDet bounds what one could save.
#include <gtest/gtest.h>

#include "sim/experiment.h"
#include "sim/presets.h"
#include "trace/workloads.h"

namespace malec::sim {
namespace {

/// A pure streaming profile with essentially no reuse: way information
/// never pays off (the class a run-time bypass would target, Sec. VI-D).
trace::WorkloadProfile pathologicalStream() {
  trace::WorkloadProfile p;
  p.name = "pathological-stream";
  p.suite = "SYNTH";
  p.mem_fraction = 0.45;
  p.ws_pages = 100'000;
  p.hot_pages = 8;
  p.hot_fraction = 0.0;
  p.p_same_page = 0.30;
  p.p_same_line = 0.0;
  p.p_stream_advance = 0.95;
  p.p_sequential = 0.2;
  p.stride_bytes = 256;
  return p;
}

TEST(StreamingCost, WayDeterminationCostIsBoundedOnPathologicalStream) {
  RunConfig rc;
  rc.workload = pathologicalStream();
  rc.system = defaultSystem();
  rc.instructions = 40'000;
  rc.interface_cfg = presetMalec();
  const auto malec = runOne(rc);
  rc.interface_cfg = presetMalecNoWaydet();
  const auto no_waydet = runOne(rc);
  // Way information almost never applies, so MALEC pays for uWT/WT upkeep
  // without reduced accesses to show for it. That upkeep is what a bypass
  // would save: MALEC's total energy over MALEC_noWayDet's (measured 1.098).
  EXPECT_EQ(malec.instructions, 40'000u);
  EXPECT_LT(malec.way_coverage, 0.15);
  EXPECT_GT(malec.total_pj, no_waydet.total_pj);
  EXPECT_LT(malec.total_pj, no_waydet.total_pj * 1.12);
}

TEST(ScaledMalec, ScaledFigure2aConfigRuns) {
  // The 4-load + 2-store Fig. 2a configuration must run and outperform
  // (or at least match) the evaluated 3-AGU MALEC.
  RunConfig rc;
  rc.workload = trace::workloadByName("djpeg");
  rc.system = defaultSystem();
  rc.instructions = 40'000;
  rc.interface_cfg = presetMalec();
  const auto small = runOne(rc);
  rc.interface_cfg = presetMalec4ld2st();
  const auto big = runOne(rc);
  EXPECT_EQ(big.instructions, 40'000u);
  EXPECT_LE(big.cycles, small.cycles + small.cycles / 50);
}

}  // namespace
}  // namespace malec::sim
