// The checkpoint determinism contract (docs/ARCHITECTURE.md): a run that
// checkpoints and a fresh stack that restores the checkpoint and continues
// must be bit-identical — full RunOutput and energy report — to the run
// that never stopped, for every Table-I preset, on synthetic and
// trace-backed workloads, at several mid-run boundaries, serial and under
// runManyParallel. Plus the strict `.mckpt` rejection matrix mirroring
// test_sample_plan: truncation, corruption, bad magic, version skew,
// foreign trace binding and configuration mismatch are all hard errors.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "ckpt/state_io.h"
#include "sim/differential.h"
#include "sim/experiment.h"
#include "sim/presets.h"
#include "sim/registry.h"
#include "trace/workloads.h"

namespace malec::sim {
namespace {

// Checkpoint audit matrix: every class in the tree that declares
// saveState/loadState must be listed here, and every name listed here must
// still exist as a stateful class. scripts/check_lint.sh diffs this list
// both ways against `malec_lint --list-stateful`, so adding a new stateful
// component without extending this file's coverage fails CI (and so does
// deleting a component while leaving a stale row). Keep sorted.
// lint-checkpoint-matrix-begin
constexpr const char* kCheckpointAuditedClasses[] = {
    "BaselineInterface",
    "Cache",
    "CoreModel",
    "EnergyAccount",
    "EventQueue",
    "InputBuffer",
    "L1Backend",
    "LastEntryRegister",
    "LoadQueue",
    "LruPolicy",
    "MalecInterface",
    "MemoryHierarchy",
    "MergeBuffer",
    "PageTable",
    "RandomPolicy",
    "SecondChancePolicy",
    "StoreBuffer",
    "SyntheticTraceGenerator",
    "Tlb",
    "TranslationEngine",
    "WayTable",
    "Wdu",
};
// lint-checkpoint-matrix-end

TEST(CheckpointMatrix, AuditedClassListIsSortedAndUnique) {
  const std::vector<std::string> names(std::begin(kCheckpointAuditedClasses),
                                       std::end(kCheckpointAuditedClasses));
  for (std::size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i])
        << "kCheckpointAuditedClasses must stay sorted and duplicate-free";
  }
}

std::string tmpPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

RunConfig baseConfig(const char* bench, core::InterfaceConfig cfg,
                     std::uint64_t instrs, std::uint64_t seed = 1) {
  RunConfig rc;
  rc.workload = trace::workloadByName(bench);
  rc.interface_cfg = std::move(cfg);
  rc.system = defaultSystem();
  rc.instructions = instrs;
  rc.seed = seed;
  return rc;
}

/// One matrix cell: run straight through; run again writing a checkpoint
/// every `every` instructions (must not perturb anything); resume the last
/// written checkpoint in a fresh stack and continue. All three bit-equal.
void expectCheckpointRoundTrip(const RunConfig& rc, std::uint64_t every,
                               const char* tag) {
  const std::string ckpt = tmpPath(tag) + ".mckpt";
  const RunOutput straight = runOne(rc);

  RunConfig writing = rc;
  writing.ckpt_out = ckpt;
  writing.ckpt_every = every;
  const RunOutput with_ckpt = runOne(writing);
  EXPECT_EQ(diffOutputs(straight, with_ckpt), "") << tag;

  RunConfig resuming = rc;
  resuming.start_ckpt = ckpt;
  const RunOutput resumed = runOne(resuming);
  EXPECT_EQ(diffOutputs(straight, resumed), "") << tag;
  std::remove(ckpt.c_str());
}

TEST(Checkpoint, StateIoRoundTrip) {
  const std::string path = tmpPath("roundtrip.mckpt");
  ckpt::StateWriter w;
  w.beginSection("alpha");
  w.u8(0x7F);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f64(3.14159);
  w.str("hello checkpoint");
  w.endSection();
  w.beginSection("beta");
  w.u64(42);
  w.endSection();
  std::string err;
  ASSERT_TRUE(w.writeTo(path, err)) << err;

  ckpt::StateReader r(path);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_TRUE(r.hasSection("alpha"));
  EXPECT_TRUE(r.hasSection("beta"));
  EXPECT_FALSE(r.hasSection("gamma"));
  // Sections are addressable in any order.
  r.openSection("beta");
  EXPECT_EQ(r.u64(), 42u);
  r.endSection();
  r.openSection("alpha");
  EXPECT_EQ(r.u8(), 0x7F);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello checkpoint");
  r.endSection();
  std::remove(path.c_str());
}

// The determinism matrix, synthetic half: every Table-I preset, several
// checkpoint boundaries. (The WDU variant rides along — it carries the one
// piece of state no other preset exercises.)
TEST(Checkpoint, SyntheticRoundTripAcrossTableIPresets) {
  const std::uint64_t n = 6'000;
  int i = 0;
  for (const auto& cfg : {presetBase1ldst(), presetBase2ld1st(),
                          presetMalec(), presetMalecWdu(16)}) {
    const RunConfig rc = baseConfig("gcc", cfg, n, 3);
    const std::string tag = "synth_ck" + std::to_string(i++);
    expectCheckpointRoundTrip(rc, n / 3, tag.c_str());
  }
}

// Several mid-run boundaries: the final checkpoint written with interval E
// sits at the last E-boundary the run crossed, so sweeping E sweeps the
// resume point.
TEST(Checkpoint, ResumesFromSeveralBoundaries) {
  const std::uint64_t n = 6'000;
  const RunConfig rc = baseConfig("mcf", presetMalec(), n, 7);
  int i = 0;
  for (const std::uint64_t every : {1'000ull, 2'500ull, 5'500ull}) {
    const std::string tag = "bound_ck" + std::to_string(i++);
    expectCheckpointRoundTrip(rc, every, tag.c_str());
  }
}

// The trace-backed half of the matrix, including a capped replay (the
// LimitedTraceSource position must restore too).
TEST(Checkpoint, TraceReplayRoundTripAcrossTableIPresets) {
  const std::string path = tmpPath("ck_trace.mtrace");
  const std::uint64_t n = 6'000;
  captureTrace(baseConfig("gcc", presetMalec(), n), path);
  int i = 0;
  for (const auto& cfg :
       {presetBase1ldst(), presetBase2ld1st(), presetMalec()}) {
    RunConfig rc = baseConfig("gcc", cfg, 0);
    rc.workload = traceWorkload(path);
    const std::string tag = "trace_ck" + std::to_string(i++);
    expectCheckpointRoundTrip(rc, n / 3, tag.c_str());
  }
  RunConfig capped = baseConfig("gcc", presetMalec(), 4'000);
  capped.workload = traceWorkload(path);
  expectCheckpointRoundTrip(capped, 1'500, "trace_ck_capped");
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumeIsBitIdenticalUnderRunManyParallel) {
  const std::uint64_t n = 5'000;
  const std::string ckpt = tmpPath("par_ck.mckpt");
  const RunConfig rc = baseConfig("gap", presetMalec(), n, 11);
  RunConfig writing = rc;
  writing.ckpt_out = ckpt;
  writing.ckpt_every = 2'000;
  const RunOutput straight = runOne(writing);

  RunConfig resuming = rc;
  resuming.start_ckpt = ckpt;
  // A mixed pool: fresh runs and resumed runs side by side.
  const auto outs = runManyParallel({rc, resuming, resuming, rc}, 4);
  ASSERT_EQ(outs.size(), 4u);
  for (const auto& o : outs) EXPECT_EQ(diffOutputs(straight, o), "");
  std::remove(ckpt.c_str());
}

// --- the strict .mckpt rejection matrix -------------------------------------

/// Write a checkpoint mid-run and return its path (caller removes).
std::string writeCheckpoint(const RunConfig& rc, const char* name) {
  RunConfig writing = rc;
  writing.ckpt_out = tmpPath(name);
  writing.ckpt_every = rc.instructions / 2;
  (void)runOne(writing);
  return writing.ckpt_out;
}

void flipByteAt(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, offset, SEEK_SET);
  const int orig = std::fgetc(f);
  std::fseek(f, offset, SEEK_SET);
  std::fputc(orig ^ 0xFF, f);
  std::fclose(f);
}

// A crafted section-name length near 2^32 must fail the bounds check, not
// wrap it (32-bit add) and read gigabytes past the payload buffer.
TEST(Checkpoint, HugeSectionNameLengthIsRejectedNotOverflowed) {
  const std::string path = tmpPath("hugename.mckpt");
  std::uint8_t payload[16] = {};
  payload[0] = 0xF8;  // u32 name_len = 0xFFFFFFF8 (LE)
  payload[1] = 0xFF;
  payload[2] = 0xFF;
  payload[3] = 0xFF;
  std::uint8_t hdr[32] = {};
  hdr[0] = 0x50;  // magic "MCKP" LE
  hdr[1] = 0x4B;
  hdr[2] = 0x43;
  hdr[3] = 0x4D;
  hdr[4] = ckpt::kCkptVersion;
  hdr[8] = sizeof payload;  // payload bytes
  hdr[16] = 1;              // one section
  // Valid checksum so only the section-table scan can reject the file.
  std::uint64_t sum = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : payload) sum = (sum ^ b) * 0x100000001b3ull;
  for (int i = 0; i < 8; ++i)
    hdr[24 + i] = static_cast<std::uint8_t>(sum >> (8 * i));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite(hdr, 1, sizeof hdr, f);
  std::fwrite(payload, 1, sizeof payload, f);
  std::fclose(f);
  ckpt::StateReader r(path);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("section table overruns"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CheckpointDeathTest, MissingCheckpointAborts) {
  RunConfig rc = baseConfig("gcc", presetMalec(), 2'000);
  rc.start_ckpt = "/nonexistent/x.mckpt";
  EXPECT_DEATH((void)runOne(rc), "cannot open");
}

TEST(CheckpointDeathTest, TruncatedCheckpointAborts) {
  RunConfig rc = baseConfig("gcc", presetMalec(), 2'000);
  const std::string path = writeCheckpoint(rc, "trunc.mckpt");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<char> bytes(static_cast<std::size_t>(size));
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  f = std::fopen(path.c_str(), "wb");
  std::fwrite(bytes.data(), 1, bytes.size() - 9, f);
  std::fclose(f);
  rc.start_ckpt = path;
  EXPECT_DEATH((void)runOne(rc), "truncated or corrupt");
  std::remove(path.c_str());
}

TEST(CheckpointDeathTest, CorruptPayloadAborts) {
  RunConfig rc = baseConfig("gcc", presetMalec(), 2'000);
  const std::string path = writeCheckpoint(rc, "corrupt.mckpt");
  flipByteAt(path, 32 + 100);  // somewhere inside the payload
  rc.start_ckpt = path;
  EXPECT_DEATH((void)runOne(rc), "checksum mismatch");
  std::remove(path.c_str());
}

TEST(CheckpointDeathTest, ForeignFileAborts) {
  const std::string path = tmpPath("foreign.mckpt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const char junk[64] = "this is not a checkpoint at all, not even close";
  std::fwrite(junk, 1, sizeof junk, f);
  std::fclose(f);
  RunConfig rc = baseConfig("gcc", presetMalec(), 2'000);
  rc.start_ckpt = path;
  EXPECT_DEATH((void)runOne(rc), "not a MALEC checkpoint");
  std::remove(path.c_str());
}

TEST(CheckpointDeathTest, VersionSkewAborts) {
  RunConfig rc = baseConfig("gcc", presetMalec(), 2'000);
  const std::string path = writeCheckpoint(rc, "version.mckpt");
  rc.start_ckpt = path;
  // Versions 1 to 3 predate the interface section's current field order.
  for (const int version : {1, 2, 3, 9}) {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    std::fseek(f, 4, SEEK_SET);
    std::fputc(version, f);
    std::fclose(f);
    const std::string expect =
        "unsupported checkpoint version " + std::to_string(version);
    EXPECT_DEATH((void)runOne(rc), expect);
  }
  std::remove(path.c_str());
}

TEST(CheckpointDeathTest, DifferentConfigurationAborts) {
  RunConfig rc = baseConfig("gcc", presetMalec(), 2'000);
  const std::string path = writeCheckpoint(rc, "cfg.mckpt");
  RunConfig other = baseConfig("gcc", presetBase1ldst(), 2'000);
  other.start_ckpt = path;
  EXPECT_DEATH((void)runOne(other), "different run configuration");
  // A changed seed or budget is the same class of mismatch.
  RunConfig reseeded = baseConfig("gcc", presetMalec(), 2'000, 99);
  reseeded.start_ckpt = path;
  EXPECT_DEATH((void)runOne(reseeded), "different run configuration");
  std::remove(path.c_str());
}

TEST(CheckpointDeathTest, ForeignTraceBindingAborts) {
  // Checkpoint a replay of trace A, then try to resume it on trace B (same
  // path contents requirement: count+checksum, exactly like .mplan).
  const std::string trace_a = tmpPath("bind_a.mtrace");
  const std::string trace_b = tmpPath("bind_b.mtrace");
  captureTrace(baseConfig("gcc", presetMalec(), 3'000), trace_a);
  captureTrace(baseConfig("gcc", presetMalec(), 3'000, 5), trace_b);
  RunConfig rc = baseConfig("gcc", presetMalec(), 0);
  rc.workload = traceWorkload(trace_a);
  const std::string path = tmpPath("bind.mckpt");
  RunConfig writing = rc;
  writing.ckpt_out = path;
  writing.ckpt_every = 1'000;
  (void)runOne(writing);
  RunConfig foreign = rc;
  foreign.workload = traceWorkload(trace_b);
  foreign.workload.name = rc.workload.name;  // same name, different bytes
  foreign.start_ckpt = path;
  EXPECT_DEATH((void)runOne(foreign), "different trace");
  std::remove(path.c_str());
  std::remove(trace_a.c_str());
  std::remove(trace_b.c_str());
}

TEST(CheckpointDeathTest, OutputPathWithoutIntervalAborts) {
  RunConfig rc = baseConfig("gcc", presetMalec(), 2'000);
  rc.ckpt_out = tmpPath("nointerval.mckpt");
  EXPECT_DEATH((void)runOne(rc), "needs an interval");
}

TEST(CheckpointDeathTest, IntervalWithoutOutputPathAborts) {
  RunConfig rc = baseConfig("gcc", presetMalec(), 2'000);
  rc.ckpt_every = 500;  // cadence with nowhere to write
  EXPECT_DEATH((void)runOne(rc), "nowhere to write");
}

TEST(CheckpointDeathTest, IntervalBeyondTheRunAborts) {
  // A fresh run that asked for checkpoints but never crossed one interval
  // must fail loudly — the user would otherwise discover the missing file
  // only at resume time, after the expensive run is gone.
  RunConfig rc = baseConfig("gcc", presetMalec(), 2'000);
  rc.ckpt_out = tmpPath("beyond.mckpt");
  rc.ckpt_every = 1'000'000;
  EXPECT_DEATH((void)runOne(rc), "no checkpoint was written");
}

}  // namespace
}  // namespace malec::sim
