#include "sweep/coordinator.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/check.h"
#include "sweep/fault.h"
#include "sweep/journal.h"
#include "sweep/result_codec.h"

namespace malec::sweep {

namespace {

using Clock = std::chrono::steady_clock;

/// Strict env fallback shared by the sweep knobs: unset/empty/"0" keeps
/// `current` (the PR 3 convention — 0 is documented as "use the default"),
/// anything non-numeric aborts via parseU64Strict.
std::uint64_t envOr(const char* name, std::uint64_t current) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return current;
  const std::uint64_t v = sim::parseU64Strict(env, name);
  return v > 0 ? v : current;
}

void checkRange(std::uint64_t v, std::uint64_t max, const char* what) {
  if (v > max) {
    const std::string msg = std::string(what) + " = " + std::to_string(v) +
                            " exceeds the supported range (max " +
                            std::to_string(max) + ")";
    MALEC_CHECK_MSG(false, msg.c_str());
  }
}

const char* failKindName(FailKind k) {
  switch (k) {
    case FailKind::kExit: return "non-zero exit";
    case FailKind::kSignal: return "killed by signal";
    case FailKind::kTimeout: return "task timeout (SIGKILL sent)";
    case FailKind::kBadResult: return "invalid result file";
  }
  return "unknown failure";
}

std::string describeFailure(std::uint32_t attempt, FailKind kind,
                            std::uint32_t code, const std::string& message) {
  std::string s = "attempt " + std::to_string(attempt) + ": " +
                  failKindName(kind) + " (code " + std::to_string(code) + ")";
  if (!message.empty()) s += " — " + message;
  return s;
}

struct TaskState {
  bool done = false;
  bool quarantined = false;
  std::uint32_t attempts = 0;  ///< attempts launched so far
  std::vector<std::string> history;
  sim::RunOutput out;
};

struct Pending {
  std::uint32_t task = 0;
  Clock::time_point eligible;
};

struct Slot {
  ::pid_t pid = -1;
  std::uint32_t task = 0;
  std::uint32_t attempt = 0;
  Clock::time_point started;
  std::string result_path;
};

std::string taskLabel(const sim::SuiteContext& ctx, std::uint32_t task) {
  const std::size_t c_count = ctx.configs.size();
  const std::size_t w = task / c_count;
  const std::size_t c = task % c_count;
  return ctx.workloads[w].name + " x " + ctx.configs[c].name;
}

/// fork/exec one worker for (task, attempt). Aborts on fork failure — a
/// coordinator that cannot spawn is not degrading gracefully, it is
/// broken. exec failure exits the child with 127 (journaled as a normal
/// attempt failure, so a bad --worker path is visible per task).
::pid_t spawnWorker(const SweepOptions& sw, const sim::SuiteContext& ctx,
                    std::uint32_t task, std::uint32_t attempt,
                    const std::string& result_path) {
  const std::string task_s = std::to_string(task);
  const std::string attempt_s = std::to_string(attempt);
  const std::string instr_s = std::to_string(ctx.instructions);
  const std::string seed_s = std::to_string(ctx.seed);
  std::vector<std::string> args = {
      sw.worker_path, "--worker", "--suite", ctx.spec.name,
      "--task", task_s, "--attempt", attempt_s,
      "--result", result_path, "--instr", instr_s, "--seed", seed_s};
  if (!ctx.opts.workload_filter.empty()) {
    args.push_back("--filter");
    args.push_back(ctx.opts.workload_filter);
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const ::pid_t pid = ::fork();
  MALEC_CHECK_MSG(pid >= 0, "fork() failed — cannot spawn sweep worker");
  if (pid == 0) {
    ::execv(sw.worker_path.c_str(), argv.data());
    std::fprintf(stderr, "execv(%s) failed: %s\n", sw.worker_path.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  return pid;
}

}  // namespace

void resolveSweepTuning(SweepOptions& sw) {
  sw.retries = envOr("MALEC_SWEEP_RETRIES", sw.retries);
  sw.backoff_ms = envOr("MALEC_SWEEP_BACKOFF_MS", sw.backoff_ms);
  checkRange(sw.task_timeout_ms, kMaxTaskTimeoutMs, "task timeout [ms]");
  checkRange(sw.retries, kMaxRetries, "sweep retries");
  checkRange(sw.backoff_ms, kMaxBackoffMs, "sweep backoff [ms]");
  checkRange(sw.workers, kMaxWorkers, "worker count");
  MALEC_CHECK_MSG(sw.workers >= 1, "a sharded sweep needs at least 1 worker");
}

int runWorkerTask(const sim::ExperimentSpec& spec,
                  const sim::SuiteOptions& opts, std::uint32_t task,
                  std::uint32_t attempt, const std::string& result_path) {
  MALEC_CHECK_MSG(!spec.custom,
                  "worker mode shards (workload x config) grids only");
  sim::SuiteContext ctx{spec, opts};
  sim::resolveSuiteContext(ctx);
  const std::uint64_t grid =
      static_cast<std::uint64_t>(ctx.workloads.size()) * ctx.configs.size();
  if (task >= grid) {
    std::fprintf(stderr,
                 "worker: task %u is outside the %llu-cell grid of suite "
                 "'%s' — coordinator/worker grid mismatch\n",
                 task, static_cast<unsigned long long>(grid),
                 spec.name.c_str());
    return 1;
  }

  const FaultSpec faults = faultSpecFromEnv();
  maybeInjectStartFault(faults, task, attempt);

  const sim::RunOutput out = sim::runOne(sim::gridCellConfig(
      ctx.workloads[task / ctx.configs.size()],
      ctx.configs[task % ctx.configs.size()], ctx.instructions, ctx.seed));

  writeResultFile(result_path, sim::gridFingerprint(ctx), task, attempt, out);
  maybeCorruptResult(faults, task, attempt, result_path);
  return 0;
}

int runSuiteCoordinated(const sim::ExperimentSpec& spec,
                        const sim::SuiteOptions& opts,
                        const SweepOptions& sweep,
                        const std::vector<sim::ResultSink*>& sinks) {
  if (spec.custom) {
    const std::string msg =
        "suite '" + spec.name + "' is not a (workload x config) grid — "
        "--workers shards matrix suites only";
    MALEC_CHECK_MSG(false, msg.c_str());
  }
  MALEC_CHECK_MSG(!sweep.journal.empty(),
                  "a sharded sweep needs a journal path (--journal/--resume)");
  MALEC_CHECK_MSG(!sweep.worker_path.empty(),
                  "sweep coordinator needs the malec_bench worker binary path");

  sim::SuiteContext ctx{spec, opts};
  sim::resolveSuiteContext(ctx);
  MALEC_CHECK_MSG(ctx.spec.configs != nullptr,
                  "spec without custom body needs a configuration set");
  // The jobs slot of SuiteInfo reports the parallelism actually used —
  // worker processes here, threads in-process.
  ctx.jobs = sweep.workers;
  ctx.sinks = sinks;

  const std::uint64_t fingerprint = sim::gridFingerprint(ctx);
  const std::uint64_t grid =
      static_cast<std::uint64_t>(ctx.workloads.size()) * ctx.configs.size();
  MALEC_CHECK_MSG(grid > 0, "cannot shard an empty grid");
  checkRange(grid, 0xFFFFFFFFull, "sweep grid size");
  const auto task_count = static_cast<std::uint32_t>(grid);

  std::vector<TaskState> states(task_count);
  JournalWriter journal;
  std::string err;

  if (sweep.resume) {
    const JournalScan scan = scanJournal(sweep.journal);
    if (!scan.ok) MALEC_CHECK_MSG(false, scan.error.c_str());
    if (scan.fingerprint != fingerprint || scan.task_count != task_count) {
      const std::string msg =
          "sweep journal '" + sweep.journal + "' was written by a different "
          "sweep (suite, budget, seed, filter or registry content differ) — "
          "refusing to merge foreign results";
      MALEC_CHECK_MSG(false, msg.c_str());
    }
    std::uint32_t replayed = 0;
    for (const JournalRecord& rec : scan.records) {
      TaskState& st = states[rec.task];
      switch (rec.type) {
        case RecordType::kGrant:
          break;  // orphaned grants simply leave the task pending
        case RecordType::kComplete: {
          MALEC_CHECK_MSG(!st.done, "journal holds a duplicate completion");
          std::string decode_err;
          const bool ok = decodeRunOutput(rec.blob.data(), rec.blob.size(),
                                          st.out, decode_err);
          MALEC_CHECK_MSG(ok, decode_err.c_str());
          st.done = true;
          ++replayed;
          break;
        }
        case RecordType::kFail:
          st.history.push_back(describeFailure(rec.attempt, rec.fail_kind,
                                               rec.fail_code, rec.message));
          break;
        case RecordType::kQuarantine:
          // A resumed sweep gives quarantined tasks a fresh retry budget:
          // the operator restarted on purpose, presumably after fixing
          // the cause (the failure history is kept for the report).
          st.history.push_back("previously quarantined: " + rec.message);
          break;
      }
    }
    if (!journal.reopen(sweep.journal, scan.valid_bytes, err))
      MALEC_CHECK_MSG(false, err.c_str());
    std::fprintf(stderr,
                 "resuming sweep from %s: %u/%u tasks already complete%s\n",
                 sweep.journal.c_str(), replayed, task_count,
                 scan.torn ? " (dropped a torn trailing record)" : "");
  } else {
    if (!journal.create(sweep.journal, fingerprint, task_count, err))
      MALEC_CHECK_MSG(false, err.c_str());
  }

  const FaultSpec faults = faultSpecFromEnv();

  for (sim::ResultSink* s : sinks) s->beginSuite(sim::suiteInfo(ctx));

  // --- supervision loop -----------------------------------------------------
  std::vector<Pending> pending;
  for (std::uint32_t t = 0; t < task_count; ++t)
    if (!states[t].done) pending.push_back({t, Clock::now()});
  std::vector<Slot> slots;
  std::uint32_t outstanding = static_cast<std::uint32_t>(pending.size());

  auto handleFailure = [&](const Slot& slot, FailKind kind,
                           std::uint32_t code, const std::string& message) {
    TaskState& st = states[slot.task];
    journal.fail(slot.task, slot.attempt, kind, code, message);
    st.history.push_back(
        describeFailure(slot.attempt, kind, code, message));
    std::fprintf(stderr, "sweep: task %u (%s) attempt %u failed: %s\n",
                 slot.task, taskLabel(ctx, slot.task).c_str(), slot.attempt,
                 st.history.back().c_str());
    if (st.attempts > sweep.retries) {
      journal.quarantine(slot.task, st.attempts, st.history.back());
      st.quarantined = true;
      --outstanding;
      std::fprintf(stderr,
                   "sweep: task %u quarantined after %u attempts — "
                   "finishing the rest of the grid\n",
                   slot.task, st.attempts);
      return;
    }
    // Exponential backoff, re-entering the queue in deterministic order
    // (the scheduler always picks the lowest eligible task id first).
    const std::uint64_t shift =
        slot.attempt < 20 ? slot.attempt : 20;  // clamp 2^k
    const std::uint64_t wait_ms =
        std::min<std::uint64_t>(sweep.backoff_ms << shift, 60'000);
    pending.push_back(
        {slot.task, Clock::now() + std::chrono::milliseconds(wait_ms)});
  };

  auto handleExit = [&](const Slot& slot, int status) {
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      sim::RunOutput out;
      std::vector<std::uint8_t> blob;
      std::string read_err;
      if (readResultFile(slot.result_path, fingerprint, slot.task,
                         slot.attempt, out, blob, read_err)) {
        journal.complete(slot.task, slot.attempt, blob);
        std::remove(slot.result_path.c_str());
        TaskState& st = states[slot.task];
        st.out = std::move(out);
        st.done = true;
        --outstanding;
        if (ctx.opts.progress) std::fputc('.', stderr);
        // Fault injection: tear the journal mid-append right after this
        // completion and die — the crash window --resume exists for.
        if (faults.match(FaultClause::Kind::kTruncateJournal, slot.task,
                         slot.attempt) != nullptr) {
          std::fprintf(stderr,
                       "\n[fault] tearing journal after task %u and "
                       "exiting\n", slot.task);
          std::error_code ec;
          std::filesystem::resize_file(journal.path(), journal.bytes() - 9,
                                       ec);
          std::_Exit(17);
        }
        return;
      }
      handleFailure(slot, FailKind::kBadResult, 0, read_err);
      std::remove(slot.result_path.c_str());
      return;
    }
    if (WIFSIGNALED(status)) {
      const char* sig_name = ::strsignal(WTERMSIG(status));
      handleFailure(slot, FailKind::kSignal,
                    static_cast<std::uint32_t>(WTERMSIG(status)),
                    sig_name != nullptr ? sig_name : "");
    } else {
      handleFailure(slot, FailKind::kExit,
                    static_cast<std::uint32_t>(WEXITSTATUS(status)), "");
    }
  };

  while (outstanding > 0) {
    // Grant work to free slots: lowest eligible task id first — the
    // deterministic reassignment order of the robustness contract.
    bool progressed = false;
    while (slots.size() < sweep.workers) {
      const auto now = Clock::now();
      auto best = pending.end();
      for (auto it = pending.begin(); it != pending.end(); ++it)
        if (it->eligible <= now &&
            (best == pending.end() || it->task < best->task))
          best = it;
      if (best == pending.end()) break;
      const std::uint32_t task = best->task;
      pending.erase(best);
      TaskState& st = states[task];
      const std::uint32_t attempt = st.attempts++;
      Slot slot;
      slot.task = task;
      slot.attempt = attempt;
      slot.result_path = sweep.journal + ".t" + std::to_string(task) +
                         ".mres";
      std::remove(slot.result_path.c_str());
      journal.grant(task, attempt);
      slot.started = Clock::now();
      slot.pid = spawnWorker(sweep, ctx, task, attempt, slot.result_path);
      slots.push_back(std::move(slot));
      progressed = true;
    }

    // Reap exits and enforce timeouts.
    for (std::size_t i = 0; i < slots.size();) {
      Slot& slot = slots[i];
      int status = 0;
      const ::pid_t r = ::waitpid(slot.pid, &status, WNOHANG);
      MALEC_CHECK_MSG(r >= 0, "waitpid() failed in the sweep coordinator");
      if (r == slot.pid) {
        const Slot finished = std::move(slot);
        slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(i));
        handleExit(finished, status);
        progressed = true;
        continue;
      }
      if (sweep.task_timeout_ms > 0 &&
          Clock::now() - slot.started >=
              std::chrono::milliseconds(sweep.task_timeout_ms)) {
        // SIGKILL escalation: a hung worker gets no grace — SIGTERM could
        // be blocked or ignored by the very hang we are defending against.
        ::kill(slot.pid, SIGKILL);
        ::waitpid(slot.pid, &status, 0);
        const Slot timed_out = std::move(slot);
        slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(i));
        handleFailure(timed_out, FailKind::kTimeout,
                      static_cast<std::uint32_t>(sweep.task_timeout_ms),
                      "exceeded " + std::to_string(sweep.task_timeout_ms) +
                          " ms");
        progressed = true;
        continue;
      }
      ++i;
    }

    if (!progressed && outstanding > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (ctx.opts.progress) std::fputc('\n', stderr);
  journal.close();

  // --- merge + report -------------------------------------------------------
  std::vector<std::uint32_t> quarantined;
  for (std::uint32_t t = 0; t < task_count; ++t)
    if (states[t].quarantined) quarantined.push_back(t);

  if (!quarantined.empty()) {
    // Graceful degradation: every other cell is journaled and DONE — a
    // later --resume (after the cause is fixed) only re-runs these — but
    // emitting a table with silently missing cells would be a lie, so the
    // sweep reports per-task failure histories and exits non-zero.
    std::string report = "sweep incomplete: " +
                         std::to_string(quarantined.size()) + " of " +
                         std::to_string(task_count) +
                         " tasks quarantined after exhausting " +
                         std::to_string(sweep.retries + 1) + " attempts\n";
    for (const std::uint32_t t : quarantined) {
      report += "  task " + std::to_string(t) + " (" + taskLabel(ctx, t) +
                "):\n";
      for (const std::string& h : states[t].history)
        report += "    " + h + "\n";
    }
    report += "fix the cause and re-run with --resume " + sweep.journal +
              " to finish the remaining tasks\n";
    std::fputs(report.c_str(), stderr);
    ctx.emitText(report);
    for (sim::ResultSink* s : sinks) s->endSuite();
    return 3;
  }

  ctx.results.assign(ctx.workloads.size(), {});
  for (std::size_t w = 0; w < ctx.workloads.size(); ++w) {
    ctx.results[w].resize(ctx.configs.size());
    for (std::size_t c = 0; c < ctx.configs.size(); ++c)
      ctx.results[w][c] =
          std::move(states[w * ctx.configs.size() + c].out);
  }
  sim::emitRunResults(ctx);
  sim::emitSuiteTables(ctx);
  for (sim::ResultSink* s : sinks) s->endSuite();
  return 0;
}

}  // namespace malec::sweep
