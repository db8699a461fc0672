// The fault-tolerance contract (docs/ARCHITECTURE.md): a sharded sweep's
// merged report is byte-identical to the in-process run — through worker
// kills, hangs past the task timeout, corrupted result files, a torn
// journal from a coordinator crash, and a --resume in a fresh process.
// Plus the strict `.mjournal` rejection matrix (bad magic, version skew,
// mid-file corruption, foreign fingerprint), the RunOutput wire codec
// round trip, the fault-spec grammar, the strictly-parsed supervision
// knobs, and the StateWriter stale-temp reaping.
//
// Subprocess scenarios exec the real malec_bench binary (MALEC_BENCH_PATH,
// wired by CMake) on a tiny grid: fig4a --filter gcc --instr 2000 is
// 1 workload x 5 configurations = 5 tasks, a couple hundred ms per run.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/state_io.h"
#include "sim/differential.h"
#include "sim/presets.h"
#include "sim/registry.h"
#include "sim/suite.h"
#include "sweep/coordinator.h"
#include "sweep/fault.h"
#include "sweep/journal.h"
#include "sweep/result_codec.h"
#include "trace/workloads.h"

namespace malec::sweep {
namespace {

std::string tmpPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void flipByteAt(const std::string& path, std::uint64_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, static_cast<long>(offset), SEEK_SET);
  const int c = std::fgetc(f);
  std::fseek(f, static_cast<long>(offset), SEEK_SET);
  std::fputc(c ^ 0x5a, f);
  std::fclose(f);
}

void truncateBy(const std::string& path, std::uint64_t drop) {
  const std::uint64_t size = std::filesystem::file_size(path);
  ASSERT_GT(size, drop);
  std::filesystem::resize_file(path, size - drop);
}

/// `.mjournal` v3 layout constants the byte-surgery tests rely on
/// (docs/FILE_FORMATS.md): 24-byte header, 21 bytes of frame overhead,
/// 8-byte grant payload.
constexpr std::uint64_t kHeader = 24;
constexpr std::uint64_t kFrame = 21;
constexpr std::uint64_t kGrantRecord = kFrame + 8;

// --- journal ----------------------------------------------------------------

TEST(Journal, RoundTripAllRecordTypes) {
  const std::string path = tmpPath("roundtrip.mjournal");
  std::remove(path.c_str());
  JournalWriter w;
  std::string err;
  ASSERT_TRUE(w.create(path, /*fingerprint=*/0xfeedbeef, /*task_count=*/9,
                       err)) << err;
  w.grant(3, 0);
  w.fail(3, 0, FailKind::kSignal, 9, "Killed");
  w.grant(3, 1);
  w.complete(3, 1, {0xde, 0xad, 0xbe, 0xef});
  w.grant(7, 0);
  w.quarantine(7, 3, "timeout x3");
  w.close();

  const JournalScan scan = scanJournal(path);
  ASSERT_TRUE(scan.ok) << scan.error;
  EXPECT_FALSE(scan.torn);
  EXPECT_EQ(scan.fingerprint, 0xfeedbeefu);
  EXPECT_EQ(scan.task_count, 9u);
  ASSERT_EQ(scan.records.size(), 6u);
  EXPECT_EQ(scan.valid_bytes, std::filesystem::file_size(path));

  EXPECT_EQ(scan.records[0].type, RecordType::kGrant);
  EXPECT_EQ(scan.records[0].task, 3u);
  EXPECT_EQ(scan.records[0].attempt, 0u);
  EXPECT_EQ(scan.records[1].type, RecordType::kFail);
  EXPECT_EQ(scan.records[1].fail_kind, FailKind::kSignal);
  EXPECT_EQ(scan.records[1].fail_code, 9u);
  EXPECT_EQ(scan.records[1].message, "Killed");
  EXPECT_EQ(scan.records[3].type, RecordType::kComplete);
  EXPECT_EQ(scan.records[3].attempt, 1u);
  EXPECT_EQ(scan.records[3].blob,
            (std::vector<std::uint8_t>{0xde, 0xad, 0xbe, 0xef}));
  EXPECT_EQ(scan.records[5].type, RecordType::kQuarantine);
  EXPECT_EQ(scan.records[5].message, "timeout x3");
}

TEST(Journal, ToleratesExactlyOneTornTrailingRecord) {
  const std::string path = tmpPath("torn.mjournal");
  std::remove(path.c_str());
  JournalWriter w;
  std::string err;
  ASSERT_TRUE(w.create(path, 1, 4, err)) << err;
  w.grant(0, 0);
  w.grant(1, 0);
  w.close();

  // Chop one byte off the last record: the crash-mid-append signature.
  truncateBy(path, 1);
  const JournalScan scan = scanJournal(path);
  ASSERT_TRUE(scan.ok) << scan.error;
  EXPECT_TRUE(scan.torn);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.valid_bytes, kHeader + kGrantRecord);

  // Reopen truncates the tear away; the next append lands cleanly.
  JournalWriter w2;
  ASSERT_TRUE(w2.reopen(path, scan.valid_bytes, err)) << err;
  w2.grant(1, 1);
  w2.close();
  const JournalScan scan2 = scanJournal(path);
  ASSERT_TRUE(scan2.ok) << scan2.error;
  EXPECT_FALSE(scan2.torn);
  ASSERT_EQ(scan2.records.size(), 2u);
  EXPECT_EQ(scan2.records[1].attempt, 1u);
}

TEST(Journal, RejectsMidFileCorruption) {
  const std::string path = tmpPath("corrupt.mjournal");
  std::remove(path.c_str());
  JournalWriter w;
  std::string err;
  ASSERT_TRUE(w.create(path, 1, 4, err)) << err;
  w.grant(0, 0);
  w.grant(1, 0);
  w.close();

  // A flipped byte INSIDE the first record is not a torn tail — the
  // checksum must reject the whole journal, loudly.
  flipByteAt(path, kHeader + 6);
  const JournalScan scan = scanJournal(path);
  EXPECT_FALSE(scan.ok);
  EXPECT_NE(scan.error.find("checksum mismatch"), std::string::npos)
      << scan.error;
}

TEST(Journal, RejectsBadMagicAndVersionSkew) {
  const std::string path = tmpPath("badmagic.mjournal");
  std::remove(path.c_str());
  JournalWriter w;
  std::string err;
  ASSERT_TRUE(w.create(path, 1, 4, err)) << err;
  w.close();

  flipByteAt(path, 0);
  EXPECT_NE(scanJournal(path).error.find("bad magic"), std::string::npos);
  flipByteAt(path, 0);  // restore
  flipByteAt(path, 4);  // version field
  EXPECT_NE(scanJournal(path).error.find("unsupported journal version"),
            std::string::npos);
}

TEST(Journal, RejectsRecordNamingTaskBeyondGrid) {
  const std::string path = tmpPath("beyond.mjournal");
  std::remove(path.c_str());
  JournalWriter w;
  std::string err;
  ASSERT_TRUE(w.create(path, 1, /*task_count=*/2, err)) << err;
  w.grant(5, 0);  // task 5 of a 2-task grid
  w.close();
  const JournalScan scan = scanJournal(path);
  EXPECT_FALSE(scan.ok);
  EXPECT_NE(scan.error.find("names task 5"), std::string::npos) << scan.error;
}

TEST(Journal, CreateRefusesExistingFile) {
  const std::string path = tmpPath("existing.mjournal");
  std::remove(path.c_str());
  JournalWriter w;
  std::string err;
  ASSERT_TRUE(w.create(path, 1, 1, err)) << err;
  w.close();
  JournalWriter w2;
  EXPECT_FALSE(w2.create(path, 1, 1, err));
  EXPECT_NE(err.find("already exists"), std::string::npos) << err;
}

// --- RunOutput wire codec ---------------------------------------------------

sim::RunOutput smallRun() {
  sim::RunConfig rc;
  rc.workload = trace::workloadByName("gcc");
  rc.interface_cfg = sim::presetRegistry().get("MALEC")();
  rc.system = sim::defaultSystem();
  rc.instructions = 2000;
  rc.seed = 1;
  return sim::runOne(rc);
}

TEST(ResultCodec, RoundTripIsBitIdentical) {
  const sim::RunOutput out = smallRun();
  const std::vector<std::uint8_t> blob = encodeRunOutput(out);
  sim::RunOutput back;
  std::string err;
  ASSERT_TRUE(decodeRunOutput(blob.data(), blob.size(), back, err)) << err;
  EXPECT_EQ(sim::diffOutputs(out, back), "");
}

TEST(ResultCodec, DecodeRejectsTruncationAndTrailingBytes) {
  const sim::RunOutput out = smallRun();
  std::vector<std::uint8_t> blob = encodeRunOutput(out);
  sim::RunOutput back;
  std::string err;
  EXPECT_FALSE(decodeRunOutput(blob.data(), blob.size() - 1, back, err));
  blob.push_back(0);
  EXPECT_FALSE(decodeRunOutput(blob.data(), blob.size(), back, err));
  EXPECT_NE(err.find("trailing"), std::string::npos) << err;
}

TEST(ResultCodec, ResultFileRoundTripAndBindingChecks) {
  const sim::RunOutput out = smallRun();
  const std::string path = tmpPath("task.mres");
  writeResultFile(path, /*fingerprint=*/42, /*task=*/3, /*attempt=*/1, out);

  sim::RunOutput back;
  std::vector<std::uint8_t> blob;
  std::string err;
  ASSERT_TRUE(readResultFile(path, 42, 3, 1, back, blob, err)) << err;
  EXPECT_EQ(sim::diffOutputs(out, back), "");
  EXPECT_EQ(blob, encodeRunOutput(out));

  // Any binding mismatch is a refusal, not a crash: wrong grid, wrong
  // task, wrong attempt.
  EXPECT_FALSE(readResultFile(path, 43, 3, 1, back, blob, err));
  EXPECT_FALSE(readResultFile(path, 42, 4, 1, back, blob, err));
  EXPECT_FALSE(readResultFile(path, 42, 3, 0, back, blob, err));

  // A flipped payload byte (what the corrupt-result fault injects) fails
  // the container checksum.
  flipByteAt(path, std::filesystem::file_size(path) - 5);
  EXPECT_FALSE(readResultFile(path, 42, 3, 1, back, blob, err));
}

// A length read from the file is checked against the bytes its section
// holds before anything is sized by it: a blob count of 2^60 over a
// three-byte section fails with a message naming the file, not with an
// uncaught std::bad_alloc from the allocation.
TEST(ResultCodecDeathTest, CountBeyondItsSectionAbortsWithMessage) {
  const std::string path = tmpPath("hugecount.mres");
  ckpt::StateWriter w;
  w.beginSection("binding");
  w.u64(42);
  w.u32(3);
  w.u32(1);
  w.endSection();
  w.beginSection("run_output");
  w.u64(1ull << 60);
  const std::uint8_t three[3] = {1, 2, 3};
  w.bytes(three, sizeof three);
  w.endSection();
  std::string err;
  ASSERT_TRUE(w.writeTo(path, err)) << err;
  sim::RunOutput back;
  std::vector<std::uint8_t> blob;
  EXPECT_DEATH((void)readResultFile(path, 42, 3, 1, back, blob, err),
               "hugecount.mres': a count of 1152921504606846976 elements "
               "overruns the 3 bytes left in its section");
  std::remove(path.c_str());
}

// --- fault-spec grammar -----------------------------------------------------

TEST(FaultSpec, ParsesClausesAndMatchesAttemptWindows) {
  const FaultSpec spec =
      parseFaultSpec("kill:task=7,hang:task=3:attempts=2,truncate-journal");
  ASSERT_EQ(spec.clauses.size(), 3u);

  // Worker clauses default to attempt 0 only: retry-then-succeed.
  EXPECT_NE(spec.match(FaultClause::Kind::kKill, 7, 0), nullptr);
  EXPECT_EQ(spec.match(FaultClause::Kind::kKill, 7, 1), nullptr);
  EXPECT_EQ(spec.match(FaultClause::Kind::kKill, 6, 0), nullptr);

  // attempts=2 fires while attempt < 2.
  EXPECT_NE(spec.match(FaultClause::Kind::kHang, 3, 1), nullptr);
  EXPECT_EQ(spec.match(FaultClause::Kind::kHang, 3, 2), nullptr);

  // truncate-journal without task= matches any task.
  EXPECT_NE(spec.match(FaultClause::Kind::kTruncateJournal, 11, 0), nullptr);

  EXPECT_EQ(spec.exploreCrashRound(), 0u);
  EXPECT_EQ(parseFaultSpec("kill:task=1,explore-crash:round=2")
                .exploreCrashRound(),
            2u);
  EXPECT_TRUE(parseFaultSpec("").clauses.empty());
}

TEST(FaultSpecDeathTest, MalformedSpecsAbort) {
  EXPECT_DEATH((void)parseFaultSpec("explode:task=1"), "unknown fault");
  EXPECT_DEATH((void)parseFaultSpec("kill"), "explicit task=");
  EXPECT_DEATH((void)parseFaultSpec("kill:task=abc"), "MALEC_FAULT_SPEC");
  EXPECT_DEATH((void)parseFaultSpec("kill:task=1:bogus=2"), "unknown key");
  EXPECT_DEATH((void)parseFaultSpec("explore-crash"), "round=N");
  EXPECT_DEATH((void)parseFaultSpec("explore-crash:round=0"), "round=N");
  EXPECT_DEATH((void)parseFaultSpec("explore-crash:round=x"),
               "MALEC_FAULT_SPEC round");
  EXPECT_DEATH((void)parseFaultSpec("explore-crash:round=1:task=1"),
               "does not apply");
  EXPECT_DEATH((void)parseFaultSpec("kill:task=1:round=1"), "does not apply");
  // task= and attempts= are 32-bit: a larger value would wrap onto another
  // task (4294967298 -> 2) or to attempts=0, and attempts=0 never fires.
  EXPECT_DEATH((void)parseFaultSpec("kill:task=4294967298"),
               "kill:task=4294967298.*exceeds");
  EXPECT_DEATH((void)parseFaultSpec("kill:task=1:attempts=0"),
               "kill:task=1:attempts=0.*N >= 1");
  EXPECT_DEATH((void)parseFaultSpec("kill:task=1:attempts=4294967296"),
               "attempts=4294967296.*exceeds");
}

// --- strictly-parsed supervision knobs --------------------------------------

TEST(SweepTuning, EnvFallbacksKeepDefaultsWhenUnsetOrZero) {
  ::unsetenv("MALEC_SWEEP_RETRIES");
  ::unsetenv("MALEC_SWEEP_BACKOFF_MS");
  SweepOptions sw;
  sw.task_timeout_ms = 5000;  // the --task-timeout flag is its only source
  resolveSweepTuning(sw);
  EXPECT_EQ(sw.task_timeout_ms, 5000u);
  EXPECT_EQ(sw.retries, 2u);
  EXPECT_EQ(sw.backoff_ms, 250u);

  ::setenv("MALEC_SWEEP_RETRIES", "7", 1);
  ::setenv("MALEC_SWEEP_BACKOFF_MS", "0", 1);  // 0 = keep the default
  resolveSweepTuning(sw);
  EXPECT_EQ(sw.retries, 7u);
  EXPECT_EQ(sw.backoff_ms, 250u);
  ::setenv("MALEC_SWEEP_BACKOFF_MS", "40", 1);
  resolveSweepTuning(sw);
  EXPECT_EQ(sw.backoff_ms, 40u);
  EXPECT_EQ(sw.task_timeout_ms, 5000u);
  ::unsetenv("MALEC_SWEEP_RETRIES");
  ::unsetenv("MALEC_SWEEP_BACKOFF_MS");
}

TEST(SweepTuningDeathTest, RejectsNonNumericAndOutOfRangeKnobs) {
  SweepOptions sw;
  // atoll would read "1e3" as 1 and "0x10" as 0 — the silent acceptance
  // class strict parsing exists to kill.
  ::setenv("MALEC_SWEEP_RETRIES", "1e3", 1);
  EXPECT_DEATH(resolveSweepTuning(sw), "MALEC_SWEEP_RETRIES");
  ::setenv("MALEC_SWEEP_RETRIES", "101", 1);  // kMaxRetries + 1
  EXPECT_DEATH(resolveSweepTuning(sw), "exceeds the supported range");
  ::unsetenv("MALEC_SWEEP_RETRIES");
  ::setenv("MALEC_SWEEP_BACKOFF_MS", "0x10", 1);
  EXPECT_DEATH(resolveSweepTuning(sw), "MALEC_SWEEP_BACKOFF_MS");
  ::setenv("MALEC_SWEEP_BACKOFF_MS", "600001", 1);  // kMaxBackoffMs + 1
  EXPECT_DEATH(resolveSweepTuning(sw), "exceeds the supported range");
  ::unsetenv("MALEC_SWEEP_BACKOFF_MS");
  sw.task_timeout_ms = kMaxTaskTimeoutMs + 1;
  EXPECT_DEATH(resolveSweepTuning(sw), "task timeout .* exceeds");
  sw.task_timeout_ms = kMaxTaskTimeoutMs;
  resolveSweepTuning(sw);
  EXPECT_EQ(sw.task_timeout_ms, kMaxTaskTimeoutMs);
}

// --- StateWriter stale-temp reaping (satellite of this PR) ------------------

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

// --- subprocess fault matrix (the real malec_bench binary) ------------------

/// Shell out to malec_bench; returns the exit code (or -1 on signal) and
/// captures stdout into `out_path`. Env tweaks ride in `env_prefix`
/// ("VAR=x " strings) so nothing leaks between scenarios.
int runBench(const std::string& env_prefix, const std::string& args,
             const std::string& out_path) {
  const std::string cmd = env_prefix + std::string(MALEC_BENCH_PATH) + " " +
                          args + " > " + out_path + " 2> " + out_path +
                          ".err";
  const int rc = std::system(cmd.c_str());
  if (WIFEXITED(rc)) return WEXITSTATUS(rc);
  return -1;
}

/// Every scenario shards the same tiny grid: 1 workload x 5 configs.
const char* kGrid = "--suite fig4a --filter gcc --instr 2000 --seed 1";

std::string uninterruptedReference() {
  static const std::string ref = [] {
    const std::string out = tmpPath("ref.txt");
    EXPECT_EQ(runBench("", std::string(kGrid) + " --jobs 2", out), 0);
    return slurp(out);
  }();
  return ref;
}

TEST(SweepProcess, CoordinatedRunMatchesInProcessByteForByte) {
  const std::string journal = tmpPath("plain.mjournal");
  std::remove(journal.c_str());
  const std::string out = tmpPath("plain.txt");
  ASSERT_EQ(runBench("", std::string(kGrid) +
                             " --workers 2 --journal " + journal,
                     out),
            0);
  EXPECT_EQ(slurp(out), uninterruptedReference());

  // The journal now holds the whole sweep: 5 grants + 5 completions.
  const JournalScan scan = scanJournal(journal);
  ASSERT_TRUE(scan.ok) << scan.error;
  EXPECT_EQ(scan.task_count, 5u);
  EXPECT_EQ(scan.records.size(), 10u);
}

TEST(SweepProcess, WorkerKilledMidTaskRetriesAndSucceeds) {
  const std::string journal = tmpPath("kill.mjournal");
  std::remove(journal.c_str());
  const std::string out = tmpPath("kill.txt");
  ASSERT_EQ(runBench("MALEC_SWEEP_BACKOFF_MS=1 MALEC_FAULT_SPEC=kill:task=2 ",
                     std::string(kGrid) + " --workers 2 --journal " + journal,
                     out),
            0);
  EXPECT_EQ(slurp(out), uninterruptedReference());

  // The journal remembers the failed attempt: a kFail(kSignal, SIGKILL).
  const JournalScan scan = scanJournal(journal);
  ASSERT_TRUE(scan.ok) << scan.error;
  bool saw_sigkill = false;
  for (const auto& r : scan.records)
    saw_sigkill = saw_sigkill || (r.type == RecordType::kFail && r.task == 2 &&
                                  r.fail_kind == FailKind::kSignal &&
                                  r.fail_code == 9);
  EXPECT_TRUE(saw_sigkill);
}

// The --task-timeout flag is the timeout's only source: an ambient
// MALEC_TASK_TIMEOUT must not override it (at 1 ms every task would be
// SIGKILLed and the whole grid quarantined, exit 3).
TEST(SweepProcess, TaskTimeoutFlagIsNotOverriddenByEnvironment) {
  const std::string journal = tmpPath("tflag.mjournal");
  std::remove(journal.c_str());
  const std::string out = tmpPath("tflag.txt");
  ASSERT_EQ(runBench("MALEC_SWEEP_BACKOFF_MS=1 MALEC_TASK_TIMEOUT=1 ",
                     std::string(kGrid) + " --workers 2 --journal " + journal +
                         " --task-timeout 600000",
                     out),
            0);
  EXPECT_EQ(slurp(out), uninterruptedReference());
}

TEST(SweepProcess, HangingWorkerIsKilledByTimeoutAndRetried) {
  const std::string journal = tmpPath("hang.mjournal");
  std::remove(journal.c_str());
  const std::string out = tmpPath("hang.txt");
  ASSERT_EQ(runBench("MALEC_SWEEP_BACKOFF_MS=1 MALEC_FAULT_SPEC=hang:task=0 ",
                     std::string(kGrid) + " --workers 2 --journal " + journal +
                         " --task-timeout 1500",
                     out),
            0);
  EXPECT_EQ(slurp(out), uninterruptedReference());
  const JournalScan scan = scanJournal(journal);
  ASSERT_TRUE(scan.ok) << scan.error;
  bool saw_timeout = false;
  for (const auto& r : scan.records)
    saw_timeout = saw_timeout || (r.type == RecordType::kFail && r.task == 0 &&
                                  r.fail_kind == FailKind::kTimeout);
  EXPECT_TRUE(saw_timeout);
}

TEST(SweepProcess, CorruptedResultFileIsRejectedAndRetried) {
  const std::string journal = tmpPath("cres.mjournal");
  std::remove(journal.c_str());
  const std::string out = tmpPath("cres.txt");
  ASSERT_EQ(
      runBench("MALEC_SWEEP_BACKOFF_MS=1 MALEC_FAULT_SPEC=corrupt-result"
               ":task=4 ",
               std::string(kGrid) + " --workers 2 --journal " + journal, out),
      0);
  EXPECT_EQ(slurp(out), uninterruptedReference());
  const JournalScan scan = scanJournal(journal);
  ASSERT_TRUE(scan.ok) << scan.error;
  bool saw_bad_result = false;
  for (const auto& r : scan.records)
    saw_bad_result = saw_bad_result ||
                     (r.type == RecordType::kFail && r.task == 4 &&
                      r.fail_kind == FailKind::kBadResult);
  EXPECT_TRUE(saw_bad_result);
}

TEST(SweepProcess, PoisonTaskIsQuarantinedThenResumeFinishesTheGrid) {
  const std::string journal = tmpPath("quar.mjournal");
  std::remove(journal.c_str());
  const std::string out = tmpPath("quar.txt");
  // attempts=99 ≈ the fault fires on every retry: the task exhausts its
  // budget, the rest of the grid still completes, exit code 3 with a
  // per-task failure report.
  ASSERT_EQ(runBench("MALEC_SWEEP_BACKOFF_MS=1 "
                     "MALEC_FAULT_SPEC=kill:task=3:attempts=99 ",
                     std::string(kGrid) + " --workers 2 --journal " + journal,
                     out),
            3);
  const std::string report = slurp(out + ".err");
  EXPECT_NE(report.find("task 3"), std::string::npos) << report;
  EXPECT_NE(report.find("--resume"), std::string::npos) << report;

  // Quarantine survives in the journal...
  const JournalScan scan = scanJournal(journal);
  ASSERT_TRUE(scan.ok) << scan.error;
  bool saw_quarantine = false;
  for (const auto& r : scan.records)
    saw_quarantine =
        saw_quarantine || (r.type == RecordType::kQuarantine && r.task == 3);
  EXPECT_TRUE(saw_quarantine);

  // ...and an explicit --resume (cause fixed: no fault spec) re-grants the
  // quarantined task with a fresh budget; the merged report is identical
  // to a sweep that never failed.
  const std::string out2 = tmpPath("quar_resume.txt");
  ASSERT_EQ(runBench("MALEC_SWEEP_BACKOFF_MS=1 ",
                     std::string(kGrid) + " --workers 2 --resume " + journal,
                     out2),
            0);
  EXPECT_EQ(slurp(out2), uninterruptedReference());
}

TEST(SweepProcess, CoordinatorCrashMidAppendResumesBitIdentical) {
  const std::string journal = tmpPath("crash.mjournal");
  std::remove(journal.c_str());
  const std::string out = tmpPath("crash.txt");
  // The coordinator tears its own journal right after journaling task 1's
  // completion and dies (exit 17) — the crash-mid-append scenario.
  EXPECT_EQ(runBench("MALEC_FAULT_SPEC=truncate-journal:task=1 ",
                     std::string(kGrid) + " --workers 2 --journal " + journal,
                     out),
            17);
  {
    const JournalScan scan = scanJournal(journal);
    ASSERT_TRUE(scan.ok) << scan.error;
    EXPECT_TRUE(scan.torn);
  }

  // Resume in a fresh process: completed tasks are not re-run, the torn
  // record's task is, and the merged report is bit-identical.
  const std::string out2 = tmpPath("crash_resume.txt");
  ASSERT_EQ(runBench("", std::string(kGrid) + " --workers 2 --resume " +
                             journal,
                     out2),
            0);
  EXPECT_EQ(slurp(out2), uninterruptedReference());
  const std::string note = slurp(out2 + ".err");
  EXPECT_NE(note.find("resuming sweep"), std::string::npos) << note;
  EXPECT_NE(note.find("torn trailing record"), std::string::npos) << note;
}

TEST(SweepProcess, ResumeRefusesForeignJournal) {
  const std::string journal = tmpPath("foreign.mjournal");
  std::remove(journal.c_str());
  const std::string out = tmpPath("foreign.txt");
  ASSERT_EQ(runBench("", std::string(kGrid) + " --workers 2 --journal " +
                             journal,
                     out),
            0);
  // Same journal, different grid (seed changed): the fingerprint check
  // must refuse to merge foreign results — whatever the exit, never 0.
  const std::string out2 = tmpPath("foreign2.txt");
  EXPECT_NE(runBench("",
                     "--suite fig4a --filter gcc --instr 2000 --seed 2 "
                     "--workers 2 --resume " +
                         journal,
                     out2),
            0);
  const std::string err = slurp(out2 + ".err");
  EXPECT_NE(err.find("foreign"), std::string::npos) << err;
}

TEST(SweepProcess, ResumeRefusesDifferentFilter) {
  // --filter composes with sharding: the post-filter workload list is
  // folded into the journal's grid fingerprint, so resuming the same
  // suite with a DIFFERENT filter is a foreign journal, never a silent
  // mis-merge of mismatched grids.
  const std::string journal = tmpPath("filterf.mjournal");
  std::remove(journal.c_str());
  const std::string out = tmpPath("filterf.txt");
  ASSERT_EQ(runBench("", std::string(kGrid) + " --workers 2 --journal " +
                             journal,
                     out),
            0);
  const std::string out2 = tmpPath("filterf2.txt");
  EXPECT_NE(runBench("",
                     "--suite fig4a --filter mcf --instr 2000 --seed 1 "
                     "--workers 2 --resume " +
                         journal,
                     out2),
            0);
  const std::string err = slurp(out2 + ".err");
  EXPECT_NE(err.find("foreign"), std::string::npos) << err;
}

TEST(SweepProcess, CliRejectsContradictoryShardingFlags) {
  const std::string out = tmpPath("cli.txt");
  // --workers without a journal; --journal + --resume; --task-timeout
  // without sharding; sharding a multi-suite run; empty --task-timeout
  // value (strict parse). All refusals, never silent acceptance.
  EXPECT_EQ(runBench("", std::string(kGrid) + " --workers 2", out), 2);
  EXPECT_EQ(runBench("", std::string(kGrid) + " --workers 2 --journal a "
                                              "--resume b",
                     out),
            2);
  EXPECT_EQ(runBench("", std::string(kGrid) + " --task-timeout 100", out), 2);
  EXPECT_EQ(runBench("", "--suite fig4a --suite fig4b --workers 2 "
                         "--journal " +
                             tmpPath("multi.mjournal"),
                     out),
            2);
  EXPECT_NE(runBench("", std::string(kGrid) + " --workers 2 --journal " +
                             tmpPath("ebad.mjournal") +
                             " --task-timeout \"\"",
                     out),
            0);
  // A worker's --task and --attempt are 32-bit: past that range they are
  // refused, not wrapped onto task 0 / attempt 1, and no result is written.
  const std::string result = tmpPath("wrapped.mres");
  for (const char* ids : {"--task 4294967296 --attempt 0",
                          "--task 0 --attempt 4294967297"}) {
    std::remove(result.c_str());
    EXPECT_NE(runBench("", std::string(kGrid) + " --worker " + ids +
                               " --result " + result,
                       out),
              0)
        << ids;
    EXPECT_FALSE(std::ifstream(result).good()) << ids;
  }
}

}  // namespace
}  // namespace malec::sweep
