#include "sweep/fault.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>

#include "common/check.h"
#include "sim/experiment.h"

namespace malec::sweep {

namespace {

[[noreturn]] void badSpec(const std::string& spec, const std::string& why) {
  const std::string msg = "invalid MALEC_FAULT_SPEC clause '" + spec + "': " +
                          why +
                          " (grammar: kill|hang|corrupt-result:task=K"
                          "[:attempts=N], truncate-journal[:task=K] or "
                          "explore-crash:round=N)";
  MALEC_CHECK_MSG(false, msg.c_str());
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::size_t at = 0;
  while (at <= s.size()) {
    const std::size_t next = s.find(sep, at);
    if (next == std::string::npos) {
      parts.push_back(s.substr(at));
      break;
    }
    parts.push_back(s.substr(at, next - at));
    at = next + 1;
  }
  return parts;
}

/// A task= or attempts= value: it is held in 32 bits, and a larger one
/// would wrap onto another task or attempt count, so it is refused.
std::uint32_t clauseU32(const std::string& clause, const std::string& val,
                        const char* what) {
  const std::uint64_t v = sim::parseU64Strict(val, what);
  if (v > std::numeric_limits<std::uint32_t>::max())
    badSpec(clause, std::string(what) + " " + val +
                        " exceeds the supported range");
  return static_cast<std::uint32_t>(v);
}

FaultClause parseClause(const std::string& clause) {
  const std::vector<std::string> parts = split(clause, ':');
  FaultClause fc;
  if (parts[0] == "kill") fc.kind = FaultClause::Kind::kKill;
  else if (parts[0] == "hang") fc.kind = FaultClause::Kind::kHang;
  else if (parts[0] == "corrupt-result")
    fc.kind = FaultClause::Kind::kCorruptResult;
  else if (parts[0] == "truncate-journal")
    fc.kind = FaultClause::Kind::kTruncateJournal;
  else if (parts[0] == "explore-crash")
    fc.kind = FaultClause::Kind::kExploreCrash;
  else badSpec(clause, "unknown fault '" + parts[0] + "'");
  const bool explore = fc.kind == FaultClause::Kind::kExploreCrash;

  for (std::size_t i = 1; i < parts.size(); ++i) {
    const std::size_t eq = parts[i].find('=');
    if (eq == std::string::npos)
      badSpec(clause, "expected key=value, got '" + parts[i] + "'");
    const std::string key = parts[i].substr(0, eq);
    const std::string val = parts[i].substr(eq + 1);
    if (explore != (key == "round")) {
      badSpec(clause, "key '" + key + "' does not apply to " + parts[0]);
    } else if (key == "round") {
      fc.round = sim::parseU64Strict(val, "MALEC_FAULT_SPEC round");
    } else if (key == "task") {
      fc.task = clauseU32(clause, val, "MALEC_FAULT_SPEC task");
      fc.has_task = true;
    } else if (key == "attempts") {
      fc.attempts = clauseU32(clause, val, "MALEC_FAULT_SPEC attempts");
      if (fc.attempts == 0)
        badSpec(clause, "attempts=N needs N >= 1 (attempts=0 never fires)");
    } else {
      badSpec(clause, "unknown key '" + key + "'");
    }
  }
  if (explore && fc.round == 0)
    badSpec(clause, "explore-crash needs round=N with N >= 1");
  if (!explore && !fc.has_task &&
      fc.kind != FaultClause::Kind::kTruncateJournal)
    badSpec(clause, "worker faults need an explicit task=K");
  return fc;
}

}  // namespace

const FaultClause* FaultSpec::match(FaultClause::Kind kind,
                                    std::uint32_t task,
                                    std::uint32_t attempt) const {
  for (const FaultClause& fc : clauses) {
    if (fc.kind != kind) continue;
    if (fc.has_task && fc.task != task) continue;
    if (attempt >= fc.attempts) continue;
    return &fc;
  }
  return nullptr;
}

std::uint64_t FaultSpec::exploreCrashRound() const {
  for (const FaultClause& fc : clauses)
    if (fc.kind == FaultClause::Kind::kExploreCrash) return fc.round;
  return 0;
}

FaultSpec parseFaultSpec(const std::string& spec) {
  FaultSpec fs;
  if (spec.empty()) return fs;
  for (const std::string& clause : split(spec, ',')) {
    if (clause.empty()) badSpec(spec, "empty clause");
    fs.clauses.push_back(parseClause(clause));
  }
  return fs;
}

FaultSpec faultSpecFromEnv() {
  const char* env = std::getenv("MALEC_FAULT_SPEC");
  return parseFaultSpec(env == nullptr ? "" : env);
}

void maybeInjectStartFault(const FaultSpec& spec, std::uint32_t task,
                           std::uint32_t attempt) {
  if (spec.match(FaultClause::Kind::kKill, task, attempt) != nullptr) {
    std::fprintf(stderr, "[fault] SIGKILL self on task %u attempt %u\n",
                 task, attempt);
    ::raise(SIGKILL);
  }
  if (spec.match(FaultClause::Kind::kHang, task, attempt) != nullptr) {
    std::fprintf(stderr, "[fault] hanging on task %u attempt %u\n", task,
                 attempt);
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  }
}

void maybeCorruptResult(const FaultSpec& spec, std::uint32_t task,
                        std::uint32_t attempt, const std::string& path) {
  if (spec.match(FaultClause::Kind::kCorruptResult, task, attempt) == nullptr)
    return;
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  MALEC_CHECK_MSG(f != nullptr, "fault injection: cannot reopen result file");
  // Flip one byte of the last 8 (inside the payload / checksum region) so
  // the StateIO container fails validation at the coordinator.
  std::fseek(f, -5, SEEK_END);
  const int c = std::fgetc(f);
  std::fseek(f, -5, SEEK_END);
  std::fputc((c == EOF ? 0 : c) ^ 0xFF, f);
  std::fclose(f);
  std::fprintf(stderr, "[fault] corrupted result of task %u attempt %u\n",
               task, attempt);
}

}  // namespace malec::sweep
