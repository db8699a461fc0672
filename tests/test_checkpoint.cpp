// The checkpoint determinism contract (docs/ARCHITECTURE.md): a run that
// checkpoints and a fresh stack that restores the checkpoint and continues
// must be bit-identical — full RunOutput and energy report — to the run
// that never stopped, for every Table-I preset, on synthetic and
// trace-backed workloads, at several mid-run boundaries, serial and under
// runManyParallel. Plus the strict `.mckpt` rejection matrix mirroring
// test_sample_plan: truncation, corruption, bad magic, version skew,
// foreign trace binding and configuration mismatch are all hard errors —
// and StateWriter's atomic write, which reaps dead writers' temps.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/state_io.h"
#include "common/binio.h"
#include "common/check.h"
#include "cpu/core_model.h"
#include "energy/energy_account.h"
#include "sim/differential.h"
#include "sim/experiment.h"
#include "sim/presets.h"
#include "sim/registry.h"
#include "trace/trace_io.h"
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
  // A section the file does not hold is corruption, named in the abort.
  EXPECT_DEATH(r.openSection("gamma"), "has no section 'gamma'");
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

// An atomic write sweeps the temps that dead writers left beside its
// target, but never a live writer's.
TEST(StateIo, WriteReapsStaleTempsButSparesLiveWriters) {
  const std::string path = tmpPath("reap.mckpt");
  // A temp left by a dead pid (1 is never free, so fabricate an absurd
  // one far past any real pid) must be swept; a temp owned by a LIVE
  // process — ours — must survive: it is a racing healthy writer.
  const std::string stale = path + ".tmp.999999999.0";
  const std::string live =
      path + ".tmp." + std::to_string(::getpid()) + ".777";
  { std::ofstream(stale) << "stale"; }
  { std::ofstream(live) << "live"; }

  ckpt::StateWriter w;
  w.beginSection("s");
  w.u32(1);
  w.endSection();
  std::string err;
  ASSERT_TRUE(w.writeTo(path, err)) << err;

  EXPECT_FALSE(std::filesystem::exists(stale));
  EXPECT_TRUE(std::filesystem::exists(live));
  std::remove(live.c_str());
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

// --- the core's dependency lists ---------------------------------------------
//
// CoreModel keeps its wakeup lists intrusive: a producer holds the head,
// tail and length of its dependents' list, and each dependent holds one
// link per producer it waits on (at most two: data and address). The
// checkpoint writes each list in wakeup order; these tests resume through
// a dependent on two lists and feed loadState lists it must refuse.

/// Producer seq -> its waiting dependents, in wakeup order.
using DependencyLists = std::vector<std::pair<SeqNum, std::vector<SeqNum>>>;

void writeRecord(ckpt::StateWriter& w, const trace::InstrRecord& r) {
  w.u64(r.seq);
  w.u8(static_cast<std::uint8_t>(r.kind));
  w.u64(r.vaddr);
  w.u8(r.size);
  w.u32(r.dep_distance);
  w.u32(r.addr_dep_distance);
}

void skipRecord(ckpt::StateReader& r) {
  r.u64();
  r.u8();
  r.u64();
  r.u8();
  r.u32();
  r.u32();
}

/// The dependency lists of a checkpoint's core section, read in the
/// layout CoreModel::saveState writes (tools/lint/schemas/CoreModel.schema).
DependencyLists readDependencyLists(const std::string& path) {
  ckpt::StateReader r(path);
  EXPECT_TRUE(r.ok()) << r.error();
  r.openSection("core");
  r.u64();  // head seq
  const std::uint64_t rob = r.u64();
  for (std::uint64_t i = 0; i < rob; ++i) {
    skipRecord(r);
    r.u8();  // pending dependencies
    r.u8();  // flags
  }
  r.u8();   // trace done
  r.u64();  // clock
  r.u64();  // run base
  if (r.u8() != 0) skipRecord(r);
  DependencyLists lists(r.u64());
  for (auto& [producer, dependents] : lists) {
    producer = r.u64();
    dependents.resize(r.u64());
    for (SeqNum& d : dependents) d = r.u64();
  }
  return lists;
}

/// Groups of three: a load L missing to its own line, an ALU op A on L's
/// result, and a load B whose data comes from L and whose address comes
/// from A — so L's list holds A then B, and B sits on two lists.
void writeDependentPairsTrace(const std::string& path, std::uint64_t groups) {
  trace::TraceWriter w(path);
  for (std::uint64_t k = 0; k < groups; ++k) {
    trace::InstrRecord l;
    l.seq = 3 * k;
    l.kind = trace::InstrKind::kLoad;
    l.vaddr = 0x100'0000 + k * 320;
    l.size = 8;
    trace::InstrRecord a;
    a.seq = 3 * k + 1;
    a.dep_distance = 1;
    trace::InstrRecord b;
    b.seq = 3 * k + 2;
    b.kind = trace::InstrKind::kLoad;
    b.vaddr = 0x200'0000 + (k % 32) * 8;
    b.size = 8;
    b.dep_distance = 2;
    b.addr_dep_distance = 1;
    w.write(l);
    w.write(a);
    w.write(b);
  }
  ASSERT_TRUE(w.close());
}

TEST(Checkpoint, ResumesThroughSharedAndTwoProducerDependents) {
  const std::string trace_path = tmpPath("ck_deps.mtrace");
  const std::string ckpt = tmpPath("ck_deps.mckpt");
  writeDependentPairsTrace(trace_path, 3'000);
  RunConfig rc = baseConfig("gcc", presetMalec(), 0);
  rc.workload = traceWorkload(trace_path);
  const RunOutput straight = runOne(rc);

  RunConfig writing = rc;
  writing.ckpt_out = ckpt;
  writing.ckpt_every = 4'000;
  EXPECT_EQ(diffOutputs(straight, runOne(writing)), "");

  // The checkpoint caught a producer with two waiting dependents, one of
  // which waits on a second producer too.
  std::map<SeqNum, int> lists_naming;
  bool shared = false;
  for (const auto& [producer, dependents] : readDependencyLists(ckpt)) {
    shared |= dependents.size() >= 2;
    for (const SeqNum d : dependents) ++lists_naming[d];
  }
  EXPECT_TRUE(shared);
  bool two_producers = false;
  for (const auto& [dependent, n] : lists_naming) two_producers |= n == 2;
  EXPECT_TRUE(two_producers);

  RunConfig resuming = rc;
  resuming.start_ckpt = ckpt;
  EXPECT_EQ(diffOutputs(straight, runOne(resuming)), "");
  std::remove(ckpt.c_str());
  std::remove(trace_path.c_str());
}

/// A core section holding `rob` (seqs from 0; pending counts `pending`)
/// and the dependency `lists`, with empty queues and zero statistics.
std::string writeCoreSection(const char* name,
                             const std::vector<trace::InstrRecord>& rob,
                             const std::vector<std::uint8_t>& pending,
                             const DependencyLists& lists) {
  const std::string path = tmpPath(name);
  ckpt::StateWriter w;
  w.beginSection("core");
  w.u64(0);  // head seq
  w.u64(rob.size());
  for (std::size_t i = 0; i < rob.size(); ++i) {
    writeRecord(w, rob[i]);
    w.u8(pending[i]);
    w.u8(0);  // not issued, not completed
  }
  w.u8(0);   // trace not done
  w.u64(5);  // clock
  w.u64(0);  // run base
  w.u8(0);   // nothing staged
  w.u64(lists.size());
  for (const auto& [producer, dependents] : lists) {
    w.u64(producer);
    w.u64(dependents.size());
    for (const SeqNum d : dependents) w.u64(d);
  }
  for (int queue = 0; queue < 3; ++queue) w.u64(0);  // ready, loads, stores
  w.u64(0);  // execution events
  w.u64(0);  // load queue entries
  for (int stat = 0; stat < 8; ++stat) w.u64(0);
  w.endSection();
  std::string err;
  EXPECT_TRUE(w.writeTo(path, err)) << err;
  return path;
}

/// Restore a fresh MALEC core from the core section at `path`.
void loadCore(const std::string& path) {
  const RunConfig rc = baseConfig("gcc", presetMalec(), 100);
  energy::EnergyAccount ea;
  const RunStack stack(rc.interface_cfg, rc.system, ea);
  trace::VectorTraceSource src({});
  cpu::CoreModel core(rc.system, rc.interface_cfg, src, stack.ifc());
  ckpt::StateReader r(path);
  MALEC_CHECK_MSG(r.ok(), r.error().c_str());
  r.openSection("core");
  core.loadState(r);
  r.endSection();
}

std::vector<trace::InstrRecord> robOf(std::size_t n) {
  std::vector<trace::InstrRecord> rob(n);
  for (std::size_t i = 0; i < n; ++i) rob[i].seq = i;
  return rob;
}

TEST(CheckpointDeathTest, BadDependencyListsAreRefused) {
  // Valid: seq 0 wakes 1 then 2; 2 also waits on 1.
  const std::string good =
      writeCoreSection("deps_good.mckpt", robOf(3), {0, 1, 2},
                       {{0, {1, 2}}, {1, {2}}});
  loadCore(good);

  const std::string outside = writeCoreSection(
      "deps_outside.mckpt", robOf(3), {0, 1, 2}, {{0, {1, 5}}, {1, {2}}});
  EXPECT_DEATH(loadCore(outside), "dependent outside the ROB");
  const std::string older = writeCoreSection(
      "deps_older.mckpt", robOf(3), {1, 1, 0}, {{0, {1}}, {1, {0}}});
  EXPECT_DEATH(loadCore(older), "not younger than its producer");
  const std::string three =
      writeCoreSection("deps_three.mckpt", robOf(4), {0, 0, 0, 3},
                       {{0, {3}}, {1, {3}}, {2, {3}}});
  EXPECT_DEATH(loadCore(three), "under three producers");
  const std::string miscounted = writeCoreSection(
      "deps_count.mckpt", robOf(3), {0, 1, 1}, {{0, {1, 2}}, {1, {2}}});
  EXPECT_DEATH(loadCore(miscounted), "dependency count disagrees");
  for (const std::string& p : {good, outside, older, three, miscounted})
    std::remove(p.c_str());
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
  binio::put64(hdr + 24, binio::checksum(binio::kFnvOffset, payload,
                                         sizeof payload));
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
  // Versions 1 to 5 predate the current field order and run binding;
  // version 6 checksummed the payload byte by byte.
  for (const int version : {1, 2, 3, 4, 5, 6, 9}) {
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
