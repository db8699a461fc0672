// Trace-backed workloads as first-class experiments: capture -> replay
// bit-identity against the direct synthetic run, trace workload naming and
// resolution, the MALEC_TRACE_DIR-style registry scan, the trace_replay
// suite through the registry/suite/sink stack, and `trace_tools analyze`
// (the real binary, MALEC_TRACE_TOOLS_PATH, wired by CMake).
//
// NOTE: RegistryScan mutates the process-global workloadRegistry() (that is
// the point of the scan); tests in this file that enumerate trace workloads
// are written to tolerate any extras it adds.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "phase/planner.h"
#include "phase/sample_plan.h"
#include "sim/differential.h"
#include "sim/presets.h"
#include "sim/registry.h"
#include "sim/suite.h"
#include "trace/locality_analyzer.h"
#include "trace/trace_io.h"
#include "trace/workloads.h"

namespace malec::sim {
namespace {

std::string tmpPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

RunConfig syntheticConfig(const char* bench, core::InterfaceConfig cfg,
                          std::uint64_t instrs, std::uint64_t seed = 1) {
  RunConfig rc;
  rc.workload = trace::workloadByName(bench);
  rc.interface_cfg = std::move(cfg);
  rc.system = defaultSystem();
  rc.instructions = instrs;
  rc.seed = seed;
  return rc;
}

/// diffOutputs of a direct run and its replay. The workload name
/// ("trace:<stem>" against the profile's) is the one field a replay may
/// change, so the replay takes the direct run's name before the diff.
std::string diffReplay(const RunOutput& direct, RunOutput replayed) {
  replayed.benchmark = direct.benchmark;
  return diffOutputs(direct, replayed);
}

TEST(TraceReplay, CaptureReplayBitIdenticalToSyntheticRun) {
  const std::string path = tmpPath("replay_gcc.mtrace");
  const RunConfig rc = syntheticConfig("gcc", presetMalec(), 8'000);
  const RunOutput direct = runOne(rc);

  EXPECT_EQ(captureTrace(rc, path), 8'000u);
  RunConfig replay = rc;
  replay.workload = traceWorkload(path);
  const RunOutput replayed = runOne(replay);

  EXPECT_EQ(replayed.benchmark, "trace:replay_gcc");
  EXPECT_EQ(replayed.config, direct.config);
  EXPECT_EQ(diffReplay(direct, replayed), "");
  std::remove(path.c_str());
}

TEST(TraceReplay, BitIdenticalAcrossTableIConfigs) {
  const std::string path = tmpPath("replay_djpeg.mtrace");
  RunConfig base = syntheticConfig("djpeg", presetMalec(), 5'000, 7);
  captureTrace(base, path);
  for (const auto& cfg :
       {presetBase1ldst(), presetBase2ld1st(), presetMalec()}) {
    RunConfig synth = base;
    synth.interface_cfg = cfg;
    RunConfig replay = synth;
    replay.workload = traceWorkload(path);
    EXPECT_EQ(diffReplay(runOne(synth), runOne(replay)), "") << cfg.name;
  }
  std::remove(path.c_str());
}

TEST(TraceReplay, InstructionBudgetCapsReplay) {
  const std::string path = tmpPath("replay_cap.mtrace");
  RunConfig rc = syntheticConfig("eon", presetMalec(), 4'000);
  captureTrace(rc, path);
  RunConfig replay = rc;
  replay.workload = traceWorkload(path);
  replay.instructions = 1'500;  // cap below the capture length
  EXPECT_EQ(runOne(replay).instructions, 1'500u);
  replay.instructions = 0;  // 0 = the whole file
  EXPECT_EQ(runOne(replay).instructions, 4'000u);
  std::remove(path.c_str());
}

TEST(TraceReplay, ReplayRunsThroughParallelSweeps) {
  const std::string path = tmpPath("replay_par.mtrace");
  RunConfig rc = syntheticConfig("gap", presetMalec(), 3'000);
  captureTrace(rc, path);
  RunConfig replay = rc;
  replay.workload = traceWorkload(path);
  // A mixed batch: synthetic and replayed runs side by side in one pool.
  const auto outs = runManyParallel({rc, replay, rc, replay}, 4);
  ASSERT_EQ(outs.size(), 4u);
  EXPECT_EQ(diffReplay(outs[0], outs[1]), "");
  EXPECT_EQ(diffReplay(outs[2], outs[3]), "");
  EXPECT_EQ(outs[1].benchmark, "trace:replay_par");
  std::remove(path.c_str());
}

TEST(TraceReplay, TraceWorkloadNamingAndResolution) {
  const std::string path = tmpPath("naming.mtrace");
  captureTrace(syntheticConfig("mcf", presetMalec(), 100), path);
  const auto wl = traceWorkload(path);
  EXPECT_EQ(wl.name, "trace:naming");
  EXPECT_EQ(wl.suite, "trace");
  EXPECT_TRUE(wl.isTrace());
  EXPECT_EQ(wl.trace_path, path);

  // The "trace:<path>" scheme resolves unregistered paths on the fly,
  // keeping the supplied name so same-stem paths stay distinguishable...
  const auto resolved = resolveWorkload("trace:" + path);
  EXPECT_EQ(resolved.trace_path, path);
  EXPECT_EQ(resolved.name, "trace:" + path);
  // ...while registry names keep resolving to their registered profiles.
  EXPECT_EQ(resolveWorkload("gcc").name, "gcc");
  EXPECT_FALSE(resolveWorkload("gcc").isTrace());
  std::remove(path.c_str());
}

TEST(TraceReplayDeathTest, MissingTraceFileAbortsWithMessage) {
  EXPECT_DEATH((void)traceWorkload("/nonexistent/x.mtrace"),
               "cannot open '/nonexistent/x.mtrace'");
}

TEST(TraceReplayDeathTest, TruncatedTraceAbortsBeforeSimulating) {
  const std::string path = tmpPath("death_trunc.mtrace");
  captureTrace(syntheticConfig("gcc", presetMalec(), 64), path);
  // Re-write the file one byte short: open-time size validation must trip.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::vector<char> bytes(52 + 64 * 26 - 1);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  f = std::fopen(path.c_str(), "wb");
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  EXPECT_DEATH((void)traceWorkload(path), "truncated");
  std::remove(path.c_str());
}

TEST(TraceReplayDeathTest, CappedReplayStillVerifiesChecksum) {
  const std::string path = tmpPath("death_cap.mtrace");
  captureTrace(syntheticConfig("gcc", presetMalec(), 2'000), path);
  RunConfig replay = syntheticConfig("gcc", presetMalec(), 2'000);
  replay.workload = traceWorkload(path);
  replay.instructions = 100;
  // A clean capped replay first, in this process (which the death test's
  // child inherits): verifying the file once must not vouch for it later.
  (void)runOne(replay);
  // Corrupt a record far past the replay cap: the capped run never decodes
  // it, so only the post-run remainder checksum can refuse the file.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  std::fseek(f, 52 + 1'900 * 26 + 9, SEEK_SET);
  const int orig = std::fgetc(f);
  std::fseek(f, 52 + 1'900 * 26 + 9, SEEK_SET);
  std::fputc(orig ^ 0xFF, f);  // guaranteed to differ
  std::fclose(f);
  EXPECT_DEATH((void)runOne(replay), "checksum mismatch");
  std::remove(path.c_str());
}

// A capture's records are numbered 0, 1, 2, ... (docs/FILE_FORMATS.md).
// Renumbered copies — every seq shifted, or one seq skipped — are refused
// with the reader's message naming the record, on a baseline and on MALEC
// alike, instead of indexing the ROB off its end or reporting a run that
// retired nothing.
TEST(TraceReplayDeathTest, MisnumberedRecordsAbortWithTheRecord) {
  const std::string good = tmpPath("seq_good.mtrace");
  captureTrace(syntheticConfig("gcc", presetMalec(), 2'000), good);
  std::vector<trace::InstrRecord> recs;
  {
    trace::TraceReader rd(good);
    recs = trace::drain(rd);
  }
  ASSERT_EQ(recs.size(), 2'000u);
  auto rewrite = [&](const std::string& path, auto renumber) {
    trace::TraceWriter w(path);
    for (trace::InstrRecord r : recs) {
      r.seq = renumber(r.seq);
      w.write(r);
    }
    ASSERT_TRUE(w.close());
  };
  const std::string shifted = tmpPath("seq_shifted.mtrace");
  rewrite(shifted, [](SeqNum s) { return s + 100'000; });
  const std::string gapped = tmpPath("seq_gapped.mtrace");
  rewrite(gapped, [](SeqNum s) { return s < 700 ? s : s + 1; });

  RunConfig rc = syntheticConfig("gcc", presetBase2ld1st(), 2'000);
  rc.workload = traceWorkload(shifted);
  EXPECT_DEATH((void)runOne(rc), "record 0 has seq 100000");
  rc.interface_cfg = presetMalec();
  rc.workload = traceWorkload(gapped);
  EXPECT_DEATH((void)runOne(rc), "record 700 has seq 701");
  for (const std::string& p : {good, shifted, gapped}) std::remove(p.c_str());
}

TEST(TraceReplayDeathTest, LayoutMismatchAborts) {
  const std::string path = tmpPath("death_layout.mtrace");
  RunConfig rc = syntheticConfig("gcc", presetMalec(), 64);
  AddressLayout::Params params;
  params.page_bytes = 16 * 1024;
  rc.system.layout = AddressLayout(params);
  captureTrace(rc, path);
  RunConfig replay = syntheticConfig("gcc", presetMalec(), 64);
  replay.workload = traceWorkload(path);  // default 4K-page system
  EXPECT_DEATH((void)runOne(replay), "different AddressLayout");
  std::remove(path.c_str());
}

// `trace_tools analyze` must measure locality under the layout the trace
// was captured with (as the phase planner does), not the default one: with
// 16 KiB pages many more loads share a page than 4 KiB pages would show.
TEST(TraceReplay, AnalyzeUsesCapturedLayout) {
  const std::string path = tmpPath("analyze_16k.mtrace");
  RunConfig rc = syntheticConfig("gcc", presetMalec(), 200'000);
  AddressLayout::Params params;
  params.page_bytes = 16 * 1024;
  rc.system.layout = AddressLayout(params);
  captureTrace(rc, path);

  auto followedAtX0 = [&](const AddressLayout& layout) {
    trace::TraceReader rd(path);
    trace::LocalityAnalyzer an(layout);
    trace::InstrRecord r;
    while (rd.next(r)) an.observe(r);
    EXPECT_TRUE(rd.ok()) << rd.error();
    return 100 * an.pageGroups()[0].frac_followed;
  };
  const double captured = followedAtX0(rc.system.layout);
  // The fixture only pins the bug if the two layouts disagree visibly.
  ASSERT_GT(captured - followedAtX0(AddressLayout{}), 1.0);

  const std::string out = tmpPath("analyze_16k.txt");
  const std::string cmd = std::string(MALEC_TRACE_TOOLS_PATH) + " analyze " +
                          path + " > " + out;
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  std::ifstream in(out);
  std::string line;
  bool saw_x0 = false;
  while (std::getline(in, line)) {
    unsigned x = 0;
    double followed = 0.0;
    if (std::sscanf(line.c_str(), "%u %lf", &x, &followed) != 2 || x != 0)
      continue;
    saw_x0 = true;
    EXPECT_NEAR(followed, captured, 0.05) << line;
  }
  EXPECT_TRUE(saw_x0) << "no x=0 row in the analyze report";
  std::remove(out.c_str());
  std::remove(path.c_str());
}

// A header layout no AddressLayout accepts (byte 29 set to 0x11 makes
// page_bytes 0x1100) is a corrupt trace: `trace_tools analyze` reports it
// and exits 1 instead of aborting.
TEST(TraceReplay, AnalyzeRefusesAnInvalidHeaderLayout) {
  const std::string path = tmpPath("analyze_badlayout.mtrace");
  captureTrace(syntheticConfig("gcc", presetMalec(), 1'000), path);
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 29, SEEK_SET), 0);
  std::fputc(0x11, f);
  std::fclose(f);

  const std::string err = tmpPath("analyze_badlayout.err");
  const std::string cmd = std::string(MALEC_TRACE_TOOLS_PATH) + " analyze " +
                          path + " > /dev/null 2> " + err;
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << status;
  EXPECT_EQ(WEXITSTATUS(status), 1);
  std::ifstream in(err);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("page_bytes 4352 is not a power of two"),
            std::string::npos)
      << text;
  std::remove(err.c_str());
  std::remove(path.c_str());
}

// Registers temp-dir captures into the global registry — keep after the
// tests above, which assume nothing about extra registry content, and
// before SuiteThroughSinks, which tolerates it.
TEST(TraceReplay, RegistryScanPicksUpTraceDir) {
  const std::string dir = std::string(::testing::TempDir()) + "scan_traces";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  captureTrace(syntheticConfig("gcc", presetMalec(), 50),
               dir + "/b_scan.mtrace");
  captureTrace(syntheticConfig("eon", presetMalec(), 50),
               dir + "/a_scan.mtrace");
  // A non-trace file that must be ignored by the *.mtrace filter.
  std::FILE* f = std::fopen((dir + "/notes.txt").c_str(), "w");
  std::fputs("not a trace", f);
  std::fclose(f);

  const std::size_t before = workloadRegistry().size();
  registerTraceWorkloadsFrom(dir);
  ASSERT_EQ(workloadRegistry().size(), before + 2);
  // Sorted by filename: a_scan registers before b_scan.
  EXPECT_EQ(workloadRegistry().names()[before], "trace:a_scan");
  EXPECT_EQ(workloadRegistry().names()[before + 1], "trace:b_scan");
  EXPECT_TRUE(workloadRegistry().get("trace:a_scan").isTrace());
}

/// Test sink capturing rendered tables (mirrors test_suite.cpp's).
struct CaptureSink : ResultSink {
  std::vector<std::string> rendered;
  std::vector<std::string> names;
  std::string notes;
  void table(const Table& t, const std::string& name,
             int precision) override {
    rendered.push_back(t.render(precision));
    names.push_back(name);
  }
  void note(const std::string& text) override { notes += text; }
};

// The acceptance check: a captured trace through the registry/suite/sink
// stack produces the exact table a synthetic sweep of the same benchmark
// produces — every cell bit-identical, only the row label differs.
TEST(TraceReplay, SuiteThroughSinksMatchesSyntheticRunBitForBit) {
  const std::string path = tmpPath("suite_gcc.mtrace");
  const std::uint64_t n = 4'000;
  captureTrace(syntheticConfig("gcc", presetMalec(), n), path);

  ExperimentSpec spec = specRegistry().get("trace_replay");
  spec.workloads = {"trace:" + path};  // explicit path, registry-independent
  SuiteOptions opts;
  opts.instructions = n;
  opts.progress = false;
  CaptureSink sink;
  runSuite(spec, opts, {&sink});
  ASSERT_EQ(sink.names.size(), 3u);
  EXPECT_EQ(sink.names[0], "trace_replay_time");
  EXPECT_EQ(sink.names[1], "trace_replay_energy");
  EXPECT_EQ(sink.names[2], "trace_replay_ipc");
  EXPECT_NE(sink.notes.find("Simpoint"), std::string::npos);

  // Expected tables, built from direct synthetic runs of the same grid.
  const std::vector<core::InterfaceConfig> cfgs = {
      presetBase1ldst(), presetBase2ld1st(), presetMalec()};
  const auto outs =
      runMatrixParallel({trace::workloadByName("gcc")}, cfgs, n, 1, 1)[0];
  std::vector<std::string> cols;
  for (const auto& c : cfgs) cols.push_back(c.name);
  const std::string label = "trace:" + path;  // ad-hoc names keep the path

  Table tt("Trace replay — normalized execution time [%] (Base1ldst = 100)",
           cols);
  std::vector<double> row;
  for (const auto& o : outs)
    row.push_back(100.0 * static_cast<double>(o.cycles) /
                  static_cast<double>(outs[0].cycles));
  tt.addRow(label, row);
  tt.addOverallGeomeanRow("geo.mean");
  EXPECT_EQ(sink.rendered[0], tt.render(1));

  Table te("Trace replay — normalized total energy [%] (Base1ldst = 100)",
           cols);
  row.clear();
  for (const auto& o : outs)
    row.push_back(100.0 * o.total_pj / outs[0].total_pj);
  te.addRow(label, row);
  te.addOverallGeomeanRow("geo.mean");
  EXPECT_EQ(sink.rendered[1], te.render(1));

  Table ti("Trace replay — IPC", cols);
  row.clear();
  for (const auto& o : outs) row.push_back(o.ipc);
  ti.addRow(label, row);
  EXPECT_EQ(sink.rendered[2], ti.render(3));
  std::remove(path.c_str());
}

// RegistryScanPicksUpTraceDir put trace:a_scan / trace:b_scan into the
// global registry; a spec with an EMPTY workload list ("the paper set")
// must not pick them up — otherwise MALEC_TRACE_DIR silently adds rows
// and shifts the geomeans of every figure reproduction.
TEST(TraceReplayDeathTest, RegisteredTracesStayOutOfPaperSuites) {
  ExperimentSpec spec = specRegistry().get("fig4a");
  ASSERT_TRUE(spec.workloads.empty());
  SuiteOptions opts;
  opts.instructions = 100;
  opts.progress = false;
  // The filter matches the registered trace workloads and nothing else; if
  // they leaked into the empty-list expansion this would happily run.
  opts.workload_filter = "a_scan";
  EXPECT_DEATH(runSuite(spec, opts, {}), "matches no workload");
}

TEST(TraceReplay, TraceStarExpandsToRegisteredTraces) {
  // RegistryScanPicksUpTraceDir registered trace:a_scan / trace:b_scan.
  ExperimentSpec spec = specRegistry().get("trace_replay");
  SuiteOptions opts;
  opts.instructions = 200;
  opts.progress = false;
  opts.workload_filter = "a_scan";
  CaptureSink sink;
  runSuite(spec, opts, {&sink});
  ASSERT_EQ(sink.rendered.size(), 3u);
  EXPECT_NE(sink.rendered[0].find("trace:a_scan"), std::string::npos);
  EXPECT_EQ(sink.rendered[0].find("trace:b_scan"), std::string::npos);
}

/// Capture a trace and write a valid .mplan sidecar next to it.
std::string captureWithSidecarPlan(const char* bench, const char* name,
                                   std::uint64_t instrs) {
  const std::string path = tmpPath(name);
  captureTrace(syntheticConfig(bench, presetMalec(), instrs), path);
  phase::PlanParams params;
  params.interval_size = instrs / 4;
  params.phases = 2;
  params.warmup_instructions = instrs / 8;
  phase::SamplePlan plan;
  std::string err;
  EXPECT_TRUE(phase::buildSamplePlan(path, params, plan, err)) << err;
  EXPECT_TRUE(phase::saveSamplePlan(plan, phase::planSidecarPath(path), err))
      << err;
  return path;
}

// The ad-hoc ":sampled" resolution form: the suffix selects sampled replay
// and must never be swallowed into the file path.
TEST(TraceReplay, AdHocSampledNameResolution) {
  const std::string path =
      captureWithSidecarPlan("gcc", "adhoc_smp.mtrace", 8'000);
  const auto wl = resolveWorkload("trace:" + path + ":sampled");
  EXPECT_EQ(wl.name, "trace:" + path + ":sampled");
  EXPECT_TRUE(wl.isTrace());
  EXPECT_TRUE(wl.isSampled());
  EXPECT_EQ(wl.trace_path, path);
  EXPECT_EQ(wl.sample_plan_path, phase::planSidecarPath(path));
  std::remove(phase::planSidecarPath(path).c_str());
  std::remove(path.c_str());
}

// The degenerate name "trace:sampled" is the path "sampled", not a sampled
// replay of an empty base — it must reach the ordinary cannot-open-trace
// diagnostic, never an uncaught substr exception.
TEST(TraceReplayDeathTest, BareSampledNameIsAPathNotASuffix) {
  EXPECT_DEATH((void)resolveWorkload("trace:sampled"),
               "cannot open 'sampled'");
}

TEST(TraceReplayDeathTest, AdHocSampledWithoutPlanAbortsWithHint) {
  const std::string path = tmpPath("adhoc_noplan.mtrace");
  captureTrace(syntheticConfig("gcc", presetMalec(), 500), path);
  // Previously this either aborted as an unknown registry name or tried to
  // open a file literally called "<path>:sampled"; now it resolves the
  // trace and fails on the missing plan, with the fix-it hint.
  EXPECT_DEATH((void)resolveWorkload("trace:" + path + ":sampled"),
               "trace_tools phases");
  std::remove(path.c_str());
}

// End-to-end through the malec_bench engine: a spec naming an ad-hoc
// sampled workload materializes (plan validated up front), runs, and keeps
// the user-supplied name in table rows.
TEST(TraceReplay, AdHocSampledRunsThroughSuite) {
  const std::string path =
      captureWithSidecarPlan("gcc", "suite_smp.mtrace", 8'000);
  const std::string name = "trace:" + path + ":sampled";
  ExperimentSpec spec = specRegistry().get("trace_replay");
  spec.workloads = {name};
  SuiteOptions opts;
  opts.progress = false;
  CaptureSink sink;
  runSuite(spec, opts, {&sink});
  ASSERT_EQ(sink.rendered.size(), 3u);
  EXPECT_NE(sink.rendered[0].find(name), std::string::npos);
  std::remove(phase::planSidecarPath(path).c_str());
  std::remove(path.c_str());
}

// A bad sidecar must fail at spec materialization — BEFORE any simulation
// starts — not mid-sweep after other rows already ran.
TEST(TraceReplayDeathTest, StaleSampledPlanFailsBeforeAnySimulation) {
  const std::string path =
      captureWithSidecarPlan("gcc", "stale_smp.mtrace", 8'000);
  // Invalidate the plan binding by re-capturing the trace underneath it.
  captureTrace(syntheticConfig("gcc", presetMalec(), 9'000), path);
  ExperimentSpec spec = specRegistry().get("trace_replay");
  spec.workloads = {"trace:" + path};  // a good row first...
  spec.workloads.push_back("trace:" + path + ":sampled");  // ...then the bad
  SuiteOptions opts;
  opts.progress = false;
  EXPECT_DEATH(runSuite(spec, opts, {}), "different trace");
  std::remove(phase::planSidecarPath(path).c_str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace malec::sim
