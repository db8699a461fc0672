// Phase subsystem units: the BBV-style interval profiler, the
// deterministic k-means clusterer and the trace -> SamplePlan planner.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "phase/interval_profiler.h"
#include "phase/kmeans.h"
#include "phase/planner.h"
#include "sim/experiment.h"
#include "sim/presets.h"
#include "trace/trace_io.h"
#include "trace/workloads.h"

namespace malec::phase {
namespace {

std::string tmpPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

trace::InstrRecord load(std::uint64_t seq, Addr vaddr) {
  trace::InstrRecord r;
  r.seq = seq;
  r.kind = trace::InstrKind::kLoad;
  r.vaddr = vaddr;
  r.size = 8;
  return r;
}

trace::InstrRecord alu(std::uint64_t seq) {
  trace::InstrRecord r;
  r.seq = seq;
  r.kind = trace::InstrKind::kOther;
  return r;
}

TEST(IntervalProfiler, CutsFixedIntervalsAndKeepsPartialTail) {
  IntervalProfiler prof(AddressLayout{}, 100);
  for (std::uint64_t i = 0; i < 250; ++i)
    prof.observe(i % 2 == 0 ? load(i, 0x1000 + 8 * i) : alu(i));
  const auto intervals = prof.finish();
  ASSERT_EQ(intervals.size(), 3u);
  EXPECT_EQ(intervals[0].instructions, 100u);
  EXPECT_EQ(intervals[1].instructions, 100u);
  EXPECT_EQ(intervals[2].instructions, 50u);  // partial tail kept
  EXPECT_EQ(intervals[0].index, 0u);
  EXPECT_EQ(intervals[2].index, 2u);
  EXPECT_EQ(intervals[0].loads, 50u);
  EXPECT_EQ(intervals[0].mem_refs, 50u);
  EXPECT_EQ(intervals[0].stores, 0u);
  // All intervals share one feature dimension; components are fractions.
  const std::size_t dim = intervals[0].vec.size();
  for (const auto& f : intervals) {
    ASSERT_EQ(f.vec.size(), dim);
    for (double v : f.vec) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(IntervalProfiler, DistinguishesAddressRegions) {
  IntervalProfiler prof(AddressLayout{}, 64);
  // Interval 0 walks low pages, interval 1 walks far-away pages: their
  // region histograms must differ.
  for (std::uint64_t i = 0; i < 64; ++i)
    prof.observe(load(i, 0x1000 + 64 * i));
  for (std::uint64_t i = 0; i < 64; ++i)
    prof.observe(load(64 + i, 0x40000000 + 64 * i));
  const auto intervals = prof.finish();
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_NE(intervals[0].vec, intervals[1].vec);
}

TEST(KMeans, DeterministicForFixedSeed) {
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 40; ++i)
    pts.push_back({static_cast<double>(i % 4), static_cast<double>(i % 3)});
  const KMeansResult a = kmeansCluster(pts, {}, 4, 42);
  const KMeansResult b = kmeansCluster(pts, {}, 4, 42);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.representative, b.representative);
  EXPECT_EQ(a.weight, b.weight);
  EXPECT_EQ(a.clusters, b.clusters);
}

TEST(KMeans, ClampsKAndCoversAllPoints) {
  std::vector<std::vector<double>> pts = {{0.0}, {1.0}, {10.0}};
  const KMeansResult r = kmeansCluster(pts, {}, 8, 1);
  EXPECT_LE(r.clusters, 3u);
  ASSERT_EQ(r.assignment.size(), 3u);
  std::uint64_t total = 0;
  for (std::uint64_t w : r.weight) total += w;
  EXPECT_EQ(total, 3u);  // unweighted points count 1 each
  for (std::uint32_t c = 0; c < r.clusters; ++c) {
    ASSERT_LT(r.representative[c], pts.size());
    // A representative belongs to the cluster it represents.
    EXPECT_EQ(r.assignment[r.representative[c]], c);
  }
}

TEST(KMeans, SeparatesObviousClustersAndSumsWeights) {
  std::vector<std::vector<double>> pts;
  std::vector<std::uint64_t> weights;
  for (int i = 0; i < 10; ++i) {
    pts.push_back({0.0 + 0.01 * i});
    weights.push_back(100);
  }
  for (int i = 0; i < 5; ++i) {
    pts.push_back({100.0 + 0.01 * i});
    weights.push_back(7);
  }
  const KMeansResult r = kmeansCluster(pts, weights, 2, 3);
  ASSERT_EQ(r.clusters, 2u);
  // Points 0..9 share a cluster, 10..14 the other.
  for (int i = 1; i < 10; ++i) EXPECT_EQ(r.assignment[i], r.assignment[0]);
  for (int i = 11; i < 15; ++i) EXPECT_EQ(r.assignment[i], r.assignment[10]);
  EXPECT_NE(r.assignment[0], r.assignment[10]);
  std::uint64_t total = 0;
  for (std::uint64_t w : r.weight) total += w;
  EXPECT_EQ(total, 10u * 100u + 5u * 7u);
}

TEST(Planner, BuildsValidatedPlanBoundToTrace) {
  const std::string path = tmpPath("planner.mtrace");
  sim::RunConfig rc;
  rc.workload = trace::workloadByName("gcc");
  rc.interface_cfg = sim::presetMalec();
  rc.system = sim::defaultSystem();
  rc.instructions = 25'000;
  EXPECT_EQ(sim::captureTrace(rc, path), 25'000u);

  PlanParams params;
  params.interval_size = 5'000;
  params.phases = 3;
  params.warmup_instructions = 1'000;
  PlanSummary summary;
  SamplePlan plan;
  std::string err;
  ASSERT_TRUE(buildSamplePlan(path, params, plan, err, &summary)) << err;

  EXPECT_EQ(summary.intervals, 5u);
  EXPECT_EQ(plan.trace_records, 25'000u);
  EXPECT_NE(plan.trace_checksum, 0u);
  EXPECT_EQ(plan.interval_size, 5'000u);
  EXPECT_EQ(plan.warmup_instructions, 1'000u);
  EXPECT_EQ(plan.totalIntervals(), 5u);
  ASSERT_GE(plan.picks.size(), 1u);
  ASSERT_LE(plan.picks.size(), 3u);
  std::uint64_t weight_sum = 0;
  for (std::size_t i = 0; i < plan.picks.size(); ++i) {
    EXPECT_LT(plan.picks[i].interval_index, 5u);
    if (i > 0) {
      EXPECT_GT(plan.picks[i].interval_index,
                plan.picks[i - 1].interval_index);
    }
    weight_sum += plan.picks[i].weight_instructions;
  }
  EXPECT_EQ(weight_sum, 25'000u);
  EXPECT_GT(plan.simulatedInstructions(), 0u);
  EXPECT_LE(plan.simulatedInstructions(), 25'000u);

  // Planning is deterministic: same trace + params -> identical plan.
  SamplePlan again;
  ASSERT_TRUE(buildSamplePlan(path, params, again, err)) << err;
  ASSERT_EQ(again.picks.size(), plan.picks.size());
  for (std::size_t i = 0; i < plan.picks.size(); ++i) {
    EXPECT_EQ(again.picks[i].interval_index, plan.picks[i].interval_index);
    EXPECT_EQ(again.picks[i].weight_instructions,
              plan.picks[i].weight_instructions);
  }
  std::remove(path.c_str());
}

// A trace the planner cannot read to its end comes back as a failure with
// the reader's message, never an abort: `trace_tools phases` exits 1 on it.
TEST(Planner, UnreadableTraceFailsWithTheReadersMessage) {
  SamplePlan plan;
  std::string err;
  EXPECT_FALSE(buildSamplePlan("/nonexistent/x.mtrace", PlanParams{}, plan,
                               err));
  EXPECT_NE(err.find("cannot open '/nonexistent/x.mtrace'"), std::string::npos)
      << err;

  // Header byte 29 set to 0x11 makes page_bytes 0x1100, not a power of two.
  const std::string path = tmpPath("bad_layout.mtrace");
  sim::RunConfig rc;
  rc.workload = trace::workloadByName("gcc");
  rc.interface_cfg = sim::presetMalec();
  rc.system = sim::defaultSystem();
  rc.instructions = 2'000;
  ASSERT_EQ(sim::captureTrace(rc, path), 2'000u);
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 29, SEEK_SET), 0);
    ASSERT_EQ(std::fputc(0x11, f), 0x11);
    std::fclose(f);
  }
  err.clear();
  EXPECT_FALSE(buildSamplePlan(path, PlanParams{}, plan, err));
  EXPECT_NE(err.find("address layout is invalid (page_bytes 4352"),
            std::string::npos)
      << err;

  // A well-formed capture with no records has nothing to plan over.
  {
    trace::TraceWriter w(path);
    ASSERT_TRUE(w.close()) << w.error();
  }
  err.clear();
  EXPECT_FALSE(buildSamplePlan(path, PlanParams{}, plan, err));
  EXPECT_NE(err.find("empty trace"), std::string::npos) << err;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace malec::phase
