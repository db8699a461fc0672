// Sweep journal: the `.mjournal` v2 append-only log that makes a sharded
// sweep crash-resumable.
//
// A coordinated sweep records every scheduling decision durably BEFORE the
// matching side effect: a task grant before the worker process is spawned,
// a completion (with the full serialized RunOutput) after its result file
// validated, a failure after a worker died / hung / returned garbage, and a
// quarantine once a task exhausted its retry budget. A coordinator killed
// at ANY instant leaves a journal from which `malec_bench --resume`
// reconstructs the exact sweep state: completed tasks are never re-run,
// orphaned grants are re-granted, and the merged report is bit-identical
// to a sweep that was never interrupted.
//
// The byte-level format is specified in docs/FILE_FORMATS.md. Like every
// MALEC on-disk format it is strict — bad magic, version skew, a foreign
// fingerprint (different suite / grid / seed / budget) and any mid-file
// checksum mismatch are hard errors. The ONE tolerated irregularity is a
// torn trailing record (fewer bytes on disk than its frame promises): that
// is the signature of a crash mid-append, and resume drops exactly that
// tail and re-runs the affected task. Appends are fsynced so the tolerated
// window really is just the last record.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace malec::sweep {

/// Magic bytes + version identifying a MALEC sweep journal ("MJNL").
inline constexpr std::uint32_t kJournalMagic = 0x4D4A4E4C;
inline constexpr std::uint32_t kJournalVersion = 2;

/// Record types, in the order the coordinator emits them per task.
enum class RecordType : std::uint8_t {
  kGrant = 1,       ///< task handed to a worker process (before spawn)
  kComplete = 2,    ///< validated result; payload carries the RunOutput blob
  kFail = 3,        ///< one attempt died (exit / signal / timeout / bad result)
  kQuarantine = 4,  ///< retry budget exhausted; sweep continues without it
};

/// Why an attempt failed — journaled so the per-task failure report can
/// say "SIGKILL on attempt 0, timeout on attempt 1" after a resume.
enum class FailKind : std::uint8_t {
  kExit = 1,       ///< worker exited non-zero; code = exit status
  kSignal = 2,     ///< worker died on a signal; code = signal number
  kTimeout = 3,    ///< wall clock exceeded the task timeout; SIGKILL sent
  kBadResult = 4,  ///< worker exited 0 but its result file did not validate
};

/// One parsed journal record. `task`/`attempt` are meaningful for every
/// type; the remaining fields depend on `type` (see docs/FILE_FORMATS.md).
struct JournalRecord {
  RecordType type = RecordType::kGrant;
  std::uint32_t task = 0;
  std::uint32_t attempt = 0;
  FailKind fail_kind = FailKind::kExit;   ///< kFail only
  std::uint32_t fail_code = 0;            ///< kFail only
  std::string message;                    ///< kFail / kQuarantine detail
  std::vector<std::uint8_t> blob;         ///< kComplete: RunOutput bytes
};

/// Everything a journal scan recovers. `valid_bytes` is the file offset
/// just past the last intact record — what resume truncates to before
/// appending — and `torn` says whether a torn trailing record was dropped
/// to get there.
struct JournalScan {
  bool ok = false;
  std::string error;
  std::uint64_t fingerprint = 0;  ///< grid identity (see sim::gridFingerprint)
  std::uint32_t task_count = 0;
  std::vector<JournalRecord> records;
  std::uint64_t valid_bytes = 0;
  bool torn = false;
};

/// Parse and validate `path` fully. Never aborts — the caller decides
/// whether a bad journal is fatal (the resume path) with the scan error.
[[nodiscard]] JournalScan scanJournal(const std::string& path);

/// Append-side handle. Every append is flushed AND fsynced before it
/// returns, so the journal on disk always reflects every decision made —
/// a crash can tear at most the append in flight.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Create a fresh journal at `path`. Refuses to overwrite an existing
  /// file — a stale journal is either resumed or explicitly removed,
  /// never silently clobbered. Returns false with `err` set on failure.
  [[nodiscard]] bool create(const std::string& path, std::uint64_t fingerprint,
                            std::uint32_t task_count, std::string& err);

  /// Reopen an existing (already scanned) journal for appending, first
  /// truncating it to `valid_bytes` — dropping a torn trailing record.
  [[nodiscard]] bool reopen(const std::string& path, std::uint64_t valid_bytes,
                            std::string& err);

  /// Append one record (fsynced). Aborts on I/O failure — a sweep whose
  /// journal cannot grow has lost its crash-safety story and must not
  /// keep simulating on top of silently dropped records.
  void grant(std::uint32_t task, std::uint32_t attempt);
  void complete(std::uint32_t task, std::uint32_t attempt,
                const std::vector<std::uint8_t>& blob);
  void fail(std::uint32_t task, std::uint32_t attempt, FailKind kind,
            std::uint32_t code, const std::string& message);
  void quarantine(std::uint32_t task, std::uint32_t attempts,
                  const std::string& last_error);

  /// The journal file path (for fault-injection truncation in tests).
  [[nodiscard]] const std::string& path() const { return path_; }
  /// Current on-disk size (header + all appended records).
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

  void close();

 private:
  void append(RecordType type, const std::vector<std::uint8_t>& payload);

  std::FILE* f_ = nullptr;
  std::string path_;
  std::uint64_t bytes_ = 0;
};

}  // namespace malec::sweep
