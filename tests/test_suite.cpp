#include "sim/suite.h"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "sim/presets.h"
#include "sim/reporting.h"
#include "trace/workloads.h"

namespace malec::sim {
namespace {

/// Test sink capturing everything a suite emits.
struct CaptureSink : ResultSink {
  SuiteInfo info;
  std::vector<std::string> rendered;   // render(precision) per table
  std::vector<std::string> names;      // table identifiers
  std::string notes;
  int begins = 0, ends = 0;

  void beginSuite(const SuiteInfo& i) override {
    info = i;
    ++begins;
  }
  void table(const Table& t, const std::string& name,
             int precision) override {
    rendered.push_back(t.render(precision));
    names.push_back(name);
  }
  void note(const std::string& text) override { notes += text; }
  void endSuite() override { ++ends; }
};

TEST(SpecRegistry, EnumeratesAtLeastTenSuites) {
  const auto& reg = specRegistry();
  EXPECT_GE(reg.size(), 10u);
  for (const char* name :
       {"fig1", "tab1_tab2", "fig4a", "fig4b", "wdu_vs_wt",
        "coverage_ablation", "merge_contribution", "arbitration_window",
        "way_encoding", "sensitivity_latency", "sensitivity_carry",
        "sensitivity_buses", "sensitivity_waydet", "sensitivity_scaling",
        "trace_replay"})
    EXPECT_TRUE(reg.has(name)) << name;
  // Every spec carries a --list description.
  for (const auto& name : reg.names())
    EXPECT_FALSE(reg.get(name).title.empty()) << name;
}

TEST(SpecRegistryDeathTest, UnknownSpecMessage) {
  SuiteOptions opts;
  EXPECT_DEATH(runSuite(specRegistry().get("nope"), opts, {}),
               "unknown spec 'nope'");
}

// This binary never registers trace workloads, so the trace_replay suite's
// "trace:*" selector must abort with the MALEC_TRACE_DIR pointer instead
// of emitting an empty exit-0 table.
TEST(SpecRegistryDeathTest, TraceReplayWithoutTracesExplains) {
  SuiteOptions opts;
  opts.progress = false;
  EXPECT_DEATH(
      {
        ::unsetenv("MALEC_TRACE_DIR");
        runSuite(specRegistry().get("trace_replay"), opts, {});
      },
      "none are registered.*MALEC_TRACE_DIR");
}

// malec_bench --all: every runnable suite runs, and the two trace suites
// are skipped with a note instead of aborting the sweep.
TEST(MalecBenchAll, SkipsTheTraceSuitesAndExitsZero) {
  const std::string err = std::string(::testing::TempDir()) + "all.err";
  const int rc = std::system(("env -u MALEC_TRACE_DIR MALEC_INSTR=2000 " +
                              std::string(MALEC_BENCH_PATH) +
                              " --all --filter gcc > /dev/null 2> " + err)
                                 .c_str());
  EXPECT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) == 0) << rc;
  std::ifstream in(err);
  const std::string text{std::istreambuf_iterator<char>(in), {}};
  for (const std::string suite : {"trace_replay", "phase_sampled"})
    EXPECT_NE(text.find("skipping suite '" + suite + "'"), std::string::npos)
        << text;
}

// malec_bench --all over captures without plans: trace_replay runs them,
// and phase_sampled, whose sampled selector expands to nothing, is skipped
// with a note naming both fixes instead of aborting the sweep.
TEST(MalecBenchAll, RunsTraceReplayAndSkipsPhaseSampledWithoutPlans) {
  const std::string dir = std::string(::testing::TempDir()) + "all_traces";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  RunConfig rc;
  rc.workload = trace::workloadByName("gcc");
  rc.interface_cfg = presetMalec();
  rc.system = defaultSystem();
  rc.instructions = 3'000;
  captureTrace(rc, dir + "/gcc.mtrace");
  const std::string out = dir + ".out", err = dir + ".err";
  const int rc_all = std::system(
      ("env MALEC_TRACE_DIR=" + dir + " MALEC_INSTR=2000 " +
       std::string(MALEC_BENCH_PATH) + " --all --filter trace: > " + out +
       " 2> " + err)
          .c_str());
  EXPECT_TRUE(WIFEXITED(rc_all) && WEXITSTATUS(rc_all) == 0) << rc_all;
  std::ifstream out_in(out), err_in(err);
  const std::string stdout_text{std::istreambuf_iterator<char>(out_in), {}};
  const std::string stderr_text{std::istreambuf_iterator<char>(err_in), {}};
  EXPECT_NE(stdout_text.find("Trace replay — IPC"), std::string::npos)
      << stdout_text;
  EXPECT_NE(stdout_text.find("trace:gcc"), std::string::npos);
  EXPECT_EQ(stderr_text.find("skipping suite 'trace_replay'"),
            std::string::npos)
      << stderr_text;
  const std::size_t skip = stderr_text.find("skipping suite 'phase_sampled'");
  ASSERT_NE(skip, std::string::npos) << stderr_text;
  const std::string note = stderr_text.substr(skip, stderr_text.find('\n', skip) - skip);
  EXPECT_NE(note.find("MALEC_TRACE_DIR"), std::string::npos) << note;
  EXPECT_NE(note.find("trace_tools phases"), std::string::npos) << note;
}

// The suite runner resolves seed 0 to the spec's seed, so an explicit
// --seed 0 is refused, not silently run as another seed.
TEST(MalecBenchCli, SeedZeroIsRefused) {
  const std::string err = std::string(::testing::TempDir()) + "seed0.err";
  const int rc = std::system((std::string(MALEC_BENCH_PATH) +
                              " --suite fig4a --filter gcc --instr 2000"
                              " --seed 0 > /dev/null 2> " + err)
                                 .c_str());
  EXPECT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) == 2) << rc;
  std::ifstream in(err);
  const std::string text{std::istreambuf_iterator<char>(in), {}};
  EXPECT_NE(text.find("0 would select the spec's seed"), std::string::npos)
      << text;
}

// The port's keystone: the fig4a spec (one runMatrixParallel batch through
// the declarative layer) must reproduce the legacy bench main — a serial
// per-workload loop with hand-rolled normalisation and geomean rows —
// bit-for-bit in the rendered table.
TEST(Suite, Fig4aSpecMatchesLegacyBenchBitForBit) {
  const std::uint64_t n = 6'000;
  // One workload per suite so the per-suite geomean boundaries are hit.
  const std::vector<std::string> picks = {"gcc", "mcf", "swim", "djpeg"};

  ExperimentSpec spec = specRegistry().get("fig4a");
  spec.workloads = picks;
  SuiteOptions opts;
  opts.instructions = n;
  opts.progress = false;
  CaptureSink sink;
  runSuite(spec, opts, {&sink});
  ASSERT_EQ(sink.rendered.size(), 1u);
  ASSERT_EQ(sink.names[0], "fig4a_time");

  // Legacy construction, verbatim from the retired bench_fig4a main.
  const auto cfgs = fig4Configs();
  std::vector<std::string> cols;
  for (const auto& c : cfgs) cols.push_back(c.name);
  Table t("Fig. 4a — normalized execution time [%] (Base1ldst = 100)",
          cols);
  std::string current_suite;
  for (const auto& name : picks) {
    const auto& wl = trace::workloadByName(name);
    if (!current_suite.empty() && wl.suite != current_suite)
      t.addGeomeanRow("geo.mean " + current_suite);
    current_suite = wl.suite;
    const auto outs = runMatrixParallel({wl}, cfgs, n, /*seed=*/1,
                                        /*jobs=*/1)[0];
    const double base = static_cast<double>(outs[0].cycles);
    std::vector<double> row;
    for (const auto& o : outs)
      row.push_back(100.0 * static_cast<double>(o.cycles) / base);
    t.addRow(wl.name, row);
  }
  t.addGeomeanRow("geo.mean " + current_suite);
  t.addOverallGeomeanRow("geo.mean Overall");

  EXPECT_EQ(sink.rendered[0], t.render(1));
  EXPECT_EQ(sink.begins, 1);
  EXPECT_EQ(sink.ends, 1);
  EXPECT_NE(sink.notes.find("Paper:"), std::string::npos);
}

TEST(Suite, WorkloadFilterSelectsMatchingRows) {
  SuiteOptions opts;
  opts.instructions = 3'000;
  opts.workload_filter = "gcc";
  opts.progress = false;
  CaptureSink sink;
  runSuite(specRegistry().get("coverage_ablation"), opts, {&sink});
  ASSERT_EQ(sink.rendered.size(), 1u);
  // One data row (gcc) plus the overall geomean row.
  EXPECT_NE(sink.rendered[0].find("gcc"), std::string::npos);
  EXPECT_NE(sink.rendered[0].find("geo.mean"), std::string::npos);
  EXPECT_EQ(sink.rendered[0].find("swim"), std::string::npos);
}

TEST(SuiteDeathTest, FilterMatchingNothingAborts) {
  SuiteOptions opts;
  opts.instructions = 2'000;
  opts.workload_filter = "zzz-no-such-bench";
  opts.progress = false;
  CaptureSink sink;
  // A silent exit-0 run with an empty table and all-zero geomeans would
  // look like a successful result to scripted sink consumers.
  EXPECT_DEATH(runSuite(specRegistry().get("fig4a"), opts, {&sink}),
               "matches no workload of suite 'fig4a'");
}

TEST(Suite, OptionsOverrideBudgetSeedAndJobs) {
  SuiteOptions opts;
  opts.instructions = 2'500;
  opts.seed = 9;
  opts.jobs = 2;
  opts.workload_filter = "eon";
  opts.progress = false;
  CaptureSink sink;
  runSuite(specRegistry().get("wdu_vs_wt"), opts, {&sink});
  EXPECT_EQ(sink.info.name, "wdu_vs_wt");
  EXPECT_EQ(sink.info.instructions, 2'500u);
  EXPECT_EQ(sink.info.seed, 9u);
  EXPECT_EQ(sink.info.jobs, 2u);
  ASSERT_EQ(sink.rendered.size(), 2u);  // coverage + energy tables
}

// The grid fingerprint keys a `.mstore` segment: it must bind the
// post-filter grid, budget and seed, and keep its value, or stores written
// by another build would stop matching byte for byte.
TEST(Suite, GridFingerprintBindsTheResolvedGrid) {
  const auto fingerprint = [](const std::string& filter, std::uint64_t seed) {
    SuiteOptions opts;
    opts.instructions = 2'000;
    opts.seed = seed;
    opts.workload_filter = filter;
    SuiteContext ctx{specRegistry().get("fig4a"), opts};
    resolveSuiteContext(ctx);
    return suiteInfo(ctx).fingerprint;
  };
  EXPECT_EQ(fingerprint("gcc", 1), 0xe6ba7764945de5e0ull);
  EXPECT_NE(fingerprint("mcf", 1), fingerprint("gcc", 1));
  EXPECT_NE(fingerprint("gcc", 2), fingerprint("gcc", 1));
}

TEST(Suite, EverySinkReceivesEveryTable) {
  SuiteOptions opts;
  opts.instructions = 2'500;
  opts.workload_filter = "eon";
  opts.progress = false;
  CaptureSink a, b;
  runSuite(specRegistry().get("fig4b"), opts, {&a, &b});
  ASSERT_EQ(a.rendered.size(), 2u);
  EXPECT_EQ(a.rendered, b.rendered);
  EXPECT_EQ(a.notes, b.notes);
}

}  // namespace
}  // namespace malec::sim
