// Golden-output corpus: what the simulator produces, pinned byte for byte.
//
// Each case is one run at 20k instructions and seed 1, rendered with
// sim::describeOutput() (every RunOutput scalar, doubles at %.17g, every
// interface and core counter, the energy report table) and compared with
// tests/golden/runs/<case>.golden:
//
//  - synth_<workload>_<config>: the five Fig. 4 presets plus MALEC_WDU16,
//    MALEC_noFeedback and MALEC_noMerge over synthetic gcc/mcf/djpeg/gap,
//    run as ONE runManyParallel batch (32 cases);
//  - synth_swim_<config>_1KB_L1: synthetic swim on MALEC and Base2ld1st
//    with a 1 KB L1 (four sets, one per bank), which evicts lines inside
//    their own fill windows and so reaches the miss path's MSHR merge;
//  - replay_gcc_<config>: a gcc capture replayed on the three Table-I
//    presets;
//  - sampled_gap_MALEC: a phase-sampled replay of a gap capture.
//
// A checkpoint-resumed gcc run on MALEC must reproduce synth_gcc_MALEC's
// golden. The corpus check fails on a mismatched, missing or orphan
// golden. Every run writes the fresh renderings to a temp directory and
// prints the one shell command that adopts them: a change that moves
// simulated behaviour regenerates the corpus and explains the diff
// (docs/ARCHITECTURE.md, "The run-loop hot path").
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/address.h"
#include "phase/planner.h"
#include "phase/sample_plan.h"
#include "sim/differential.h"
#include "sim/presets.h"
#include "sim/registry.h"
#include "trace/workloads.h"

namespace malec::sim {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kInstrs = 20'000;

/// Case name -> describeOutput() rendering.
using Corpus = std::map<std::string, std::string>;

fs::path goldenDir() {
  return fs::path(MALEC_TEST_DATA_DIR) / "golden" / "runs";
}

/// An emptied directory under the test temp dir.
fs::path freshDir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string readFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void writeFile(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  ASSERT_TRUE(out.good()) << "cannot write " << path.string();
}

RunConfig synthConfig(const char* workload, core::InterfaceConfig cfg,
                      std::uint64_t instructions = kInstrs) {
  RunConfig rc;
  rc.workload = trace::workloadByName(workload);
  rc.interface_cfg = std::move(cfg);
  rc.system = defaultSystem();
  rc.instructions = instructions;
  rc.seed = 1;
  return rc;
}

/// Simulate every corpus case.
Corpus simulateCorpus() {
  Corpus corpus;
  std::vector<core::InterfaceConfig> cfgs = fig4Configs();
  cfgs.push_back(presetMalecWdu(16));
  cfgs.push_back(presetMalecNoFeedback());
  cfgs.push_back(presetMalecNoMerge());
  std::vector<RunConfig> batch;
  for (const char* wl : {"gcc", "mcf", "djpeg", "gap"})
    for (const core::InterfaceConfig& cfg : cfgs)
      batch.push_back(synthConfig(wl, cfg));
  for (const RunOutput& out : runManyParallel(batch))
    corpus["synth_" + out.benchmark + "_" + out.config] = describeOutput(out);

  for (const auto& make : {presetMalec, presetBase2ld1st}) {
    RunConfig rc = synthConfig("swim", make());
    AddressLayout::Params small_l1;
    small_l1.l1_bytes = 1024;
    rc.system.layout = AddressLayout(small_l1);
    const RunOutput out = runOne(rc);
    corpus["synth_swim_" + out.config + "_1KB_L1"] = describeOutput(out);
  }

  // Captures are named after their workload: replays report "trace:<stem>".
  const fs::path traces = freshDir("malec_golden_traces");
  const std::string gcc = (traces / "gcc.mtrace").string();
  captureTrace(synthConfig("gcc", presetMalec()), gcc);
  for (const auto& make : {presetBase1ldst, presetBase2ld1st, presetMalec}) {
    RunConfig rc = synthConfig("gcc", make(), /*instructions=*/0);
    rc.workload = traceWorkload(gcc);
    const RunOutput out = runOne(rc);
    corpus["replay_gcc_" + out.config] = describeOutput(out);
  }

  const std::string gap = (traces / "gap.mtrace").string();
  captureTrace(synthConfig("gap", presetMalec()), gap);
  phase::PlanParams params;
  params.interval_size = kInstrs / 8;
  params.phases = 3;
  params.warmup_instructions = kInstrs / 8;
  std::string err;
  EXPECT_TRUE(phase::saveSamplePlan(phase::buildSamplePlan(gap, params),
                                    phase::planSidecarPath(gap), err))
      << err;
  RunConfig sampled = synthConfig("gap", presetMalec(), /*instructions=*/0);
  sampled.workload = sampledWorkload(traceWorkload(gap));
  corpus["sampled_gap_MALEC"] = describeOutput(runOne(sampled));
  fs::remove_all(traces);
  return corpus;
}

/// Compare `fresh` with the *.golden files in `dir`: one message per
/// mismatched, missing or orphan golden (none = the corpus matches).
std::vector<std::string> checkCorpus(const Corpus& fresh, const fs::path& dir) {
  std::vector<std::string> problems;
  for (const auto& [name, text] : fresh) {
    const fs::path golden = dir / (name + ".golden");
    if (!fs::exists(golden)) {
      problems.push_back("missing golden " + golden.string());
      continue;
    }
    const std::string diff = diffLines(readFile(golden), text);
    if (!diff.empty())
      problems.push_back(name + " moved (- golden, + fresh):\n" + diff);
  }
  if (fs::is_directory(dir)) {
    for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
      const fs::path& p = e.path();
      if (p.extension() != ".golden" || fresh.count(p.stem().string()) == 0)
        problems.push_back("orphan golden " + p.string());
    }
  }
  return problems;
}

TEST(GoldenRuns, CorpusMatchesCommittedGoldens) {
  const Corpus fresh = simulateCorpus();
  ASSERT_EQ(fresh.size(), 38u);
  const fs::path out = freshDir("malec_golden_runs");
  for (const auto& [name, text] : fresh)
    writeFile(out / (name + ".golden"), text);
  const std::string golden = "'" + goldenDir().string() + "'";
  const std::string adopt = "mkdir -p " + golden + " && rm -f " + golden +
                            "/* && cp '" + out.string() + "'/* " + golden;
  std::cout << "fresh renderings: " << out.string()
            << "\nadopt them with:\n  " << adopt << "\n";

  const std::vector<std::string> problems = checkCorpus(fresh, goldenDir());
  for (const std::string& p : problems) ADD_FAILURE() << p;
  if (!problems.empty())
    ADD_FAILURE() << "if the change in simulated behaviour is intended, "
                     "adopt the fresh renderings and explain the diff:\n  "
                  << adopt;
}

TEST(GoldenRuns, CheckpointResumeReproducesStraightGolden) {
  const fs::path golden = goldenDir() / "synth_gcc_MALEC.golden";
  ASSERT_TRUE(fs::exists(golden)) << "missing golden " << golden.string();
  const std::string ckpt =
      (fs::path(::testing::TempDir()) / "malec_golden_resume.mckpt").string();
  RunConfig writing = synthConfig("gcc", presetMalec());
  writing.ckpt_out = ckpt;
  writing.ckpt_every = kInstrs * 3 / 4;  // one checkpoint, mid-run
  const RunOutput written = runOne(writing);
  RunConfig resuming = synthConfig("gcc", presetMalec());
  resuming.start_ckpt = ckpt;
  const RunOutput resumed = runOne(resuming);
  std::remove(ckpt.c_str());
  EXPECT_EQ(diffLines(readFile(golden), describeOutput(written)), "");
  EXPECT_EQ(diffLines(readFile(golden), describeOutput(resumed)), "");
}

TEST(GoldenRuns, DiffNamesExactlyThePerturbedField) {
  // A comparator that can never fail proves nothing: perturb one field at
  // a time and expect exactly that line to be named, with both values.
  const RunOutput a = runOne(synthConfig("gcc", presetMalec(), 2000));
  EXPECT_EQ(diffOutputs(a, a), "");
  auto expectOnly = [&a](const RunOutput& b, const std::string& prefix) {
    const std::string diff = diffOutputs(a, b);
    std::istringstream lines(diff);
    std::string removed, added, extra;
    std::getline(lines, removed);
    std::getline(lines, added);
    EXPECT_EQ(removed.rfind("- " + prefix, 0), 0u) << diff;
    EXPECT_EQ(added.rfind("+ " + prefix, 0), 0u) << diff;
    EXPECT_FALSE(std::getline(lines, extra)) << diff;
  };
  RunOutput b = a;
  b.cycles += 1;
  expectOnly(b, "cycles: ");
  b = a;
  b.total_pj = std::nextafter(a.total_pj, 2 * a.total_pj);  // one ulp
  expectOnly(b, "total_pj: ");
  b = a;
  b.core.loads += 1;
  expectOnly(b, "core counter #0: ");
  b = a;
  b.ifc.loads_submitted += 1;
  expectOnly(b, "ifc counter #0: ");
  b = a;
  ASSERT_FALSE(a.energy_detail.all().empty());
  const auto& [key, value] = *a.energy_detail.all().begin();
  b.energy_detail.set(key, 2 * value + 1);
  expectOnly(b, "energy: " + key + " ");
}

TEST(GoldenRuns, MismatchedGoldenNamesTheMovedLine) {
  const fs::path dir = freshDir("malec_golden_check_mismatch");
  writeFile(dir / "a.golden", "x: 1\ny: 2\n");
  const std::vector<std::string> problems =
      checkCorpus({{"a", "x: 1\ny: 3\n"}}, dir);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("- y: 2\n+ y: 3\n"), std::string::npos)
      << problems[0];
  fs::remove_all(dir);
}

TEST(GoldenRuns, MissingGoldenFails) {
  const fs::path dir = freshDir("malec_golden_check_missing");
  writeFile(dir / "a.golden", "x: 1\n");
  const std::vector<std::string> problems =
      checkCorpus({{"a", "x: 1\n"}, {"b", "x: 2\n"}}, dir);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_EQ(problems[0], "missing golden " + (dir / "b.golden").string());
  fs::remove_all(dir);
}

TEST(GoldenRuns, OrphanGoldenFails) {
  const fs::path dir = freshDir("malec_golden_check_orphan");
  writeFile(dir / "a.golden", "x: 1\n");
  writeFile(dir / "stale.golden", "x: 2\n");
  const std::vector<std::string> problems =
      checkCorpus({{"a", "x: 1\n"}}, dir);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_EQ(problems[0], "orphan golden " + (dir / "stale.golden").string());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace malec::sim
