// Pluggable result sinks for the declarative experiment layer: a suite run
// produces Tables and free-form notes, and every attached sink renders them
// its own way — pretty console tables, per-table CSV files or a JSON-lines
// event stream for downstream tooling.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "sim/reporting.h"

namespace malec::sim {

struct RunOutput;

/// What a sink gets told about the suite whose results follow.
struct SuiteInfo {
  std::string name;          ///< registry key, e.g. "fig4a"
  std::string title;         ///< one-line description
  std::uint64_t instructions = 0;
  std::uint64_t seed = 0;
  unsigned jobs = 0;
  /// FNV-1a fingerprint of the resolved (workload x config) grid — the
  /// same value the sweep journal binds to (sim::gridFingerprint). 0 for
  /// custom suites, which have no grid to fingerprint.
  std::uint64_t fingerprint = 0;
};

/// One grid cell's result, announced to sinks between beginSuite() and the
/// tables: the raw material durable sinks (the .mstore StoreSink) persist.
/// `out` points into the suite's result matrix and is only valid for the
/// duration of the call.
struct RunRecord {
  const std::string& workload;  ///< resolved workload name
  const std::string& config;    ///< configuration (preset) name
  const RunOutput& out;
};

/// Receiver interface. A suite run calls beginSuite() once, then — for
/// grid suites — runResult() per grid cell in matrix order, then any mix
/// of table() and note() in output order, then endSuite(). Sinks are
/// expected to be cheap; heavy lifting (simulation) happened before
/// emission.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void beginSuite(const SuiteInfo&) {}
  /// Per-run hook, called in deterministic matrix order (workload-major)
  /// by both the in-process matrix path and the sharded coordinator's
  /// merge. Table-oriented sinks ignore it.
  virtual void runResult(const RunRecord&) {}
  /// `name` is the table's stable identifier (CSV file stem / JSON key);
  /// `precision` the decimal places the legacy bench rendered with.
  virtual void table(const Table& t, const std::string& name,
                     int precision) = 0;
  /// Free-form text (paper anchors, Table I/II prose). Includes its own
  /// newlines; stream sinks wrap it, the console prints it verbatim.
  virtual void note(const std::string& /*text*/) {}
  virtual void endSuite() {}
};

/// Pretty printer: renders exactly what the legacy bench binaries printed
/// to stdout — `render(precision)` plus a blank line, notes verbatim.
class ConsoleSink : public ResultSink {
 public:
  explicit ConsoleSink(std::FILE* out = stdout) : out_(out) {}
  void table(const Table& t, const std::string& name, int precision) override;
  void note(const std::string& text) override;

 private:
  std::FILE* out_;
};

/// Writes each table as `<dir>/<name>.csv` via Table::csv(). Notes are
/// ignored. Directory must exist; write failures are reported on stderr
/// once but do not abort the run.
class CsvDirSink : public ResultSink {
 public:
  explicit CsvDirSink(std::string dir) : dir_(std::move(dir)) {}
  void table(const Table& t, const std::string& name, int precision) override;

 private:
  std::string dir_;
};

/// One JSON object per line: suite_begin / table / row / note / suite_end
/// events, self-describing enough to rebuild every table downstream.
/// Writes either to a FILE* (not owned) or into a capture string (tests).
class JsonLinesSink : public ResultSink {
 public:
  explicit JsonLinesSink(std::FILE* out) : out_(out) {}
  explicit JsonLinesSink(std::string* capture) : capture_(capture) {}

  void beginSuite(const SuiteInfo& info) override;
  void table(const Table& t, const std::string& name, int precision) override;
  void note(const std::string& text) override;
  void endSuite() override;

 private:
  void writeLine(const std::string& line);

  std::FILE* out_ = nullptr;
  std::string* capture_ = nullptr;
  std::string suite_;
};

/// JSON string escaping (quotes, backslashes, control characters); UTF-8
/// passes through untouched.
[[nodiscard]] std::string jsonEscape(const std::string& s);

}  // namespace malec::sim
