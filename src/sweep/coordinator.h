// Fault-tolerant sweep coordinator: shards one experiment spec's
// (workload x configuration) grid across supervised worker PROCESSES and
// journals every scheduling decision, so the sweep survives worker
// crashes, hangs, corrupt results and even the coordinator's own death
// (docs/ARCHITECTURE.md, "Fault tolerance").
//
// Execution model: each grid cell is one task (task = w * configs + c,
// the runMatrixParallel flattening). The coordinator keeps up to
// `workers` children alive, each a fork/exec of `malec_bench --worker`
// granted exactly one task; the worker simulates it with the identical
// RunConfig the in-process matrix would build and hands the full
// RunOutput back through a checksummed result file. Supervision:
//
//   - per-task wall-clock timeout (--task-timeout, milliseconds) with
//     SIGKILL escalation,
//   - bounded retries (MALEC_SWEEP_RETRIES) with exponential backoff
//     (MALEC_SWEEP_BACKOFF_MS doubling per attempt) and a deterministic
//     reassignment order (lowest eligible task id first),
//   - quarantine once a task exhausts its retries: the sweep finishes
//     every other cell, emits a per-task failure report and exits
//     non-zero instead of aborting the grid,
//   - crash recovery: `--resume <journal>` replays the `.mjournal`,
//     skips completed tasks, re-grants orphaned or quarantined ones, and
//     the merged report is bit-identical to an uninterrupted run.
//
// Custom-body suites (fig1, tab1_tab2, way_encoding) are not a grid and
// cannot be sharded — asking for --workers on one is a hard error naming
// the suite.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/suite.h"

namespace malec::sweep {

/// Process-sharding options, on top of the usual SuiteOptions.
struct SweepOptions {
  unsigned workers = 1;         ///< concurrent worker processes (>= 1)
  std::string journal;          ///< `.mjournal` path (required)
  bool resume = false;          ///< journal must already exist and be valid
  std::uint64_t task_timeout_ms = 0;  ///< 0 = no timeout
  std::uint64_t retries = 2;          ///< re-attempts after the first failure
  std::uint64_t backoff_ms = 250;     ///< base backoff, doubled per attempt
  std::string worker_path;      ///< malec_bench binary to exec for workers
};

/// Range limits for the strictly-parsed knobs (docs/README env table).
inline constexpr std::uint64_t kMaxTaskTimeoutMs = 86'400'000;  ///< one day
inline constexpr std::uint64_t kMaxRetries = 100;
inline constexpr std::uint64_t kMaxBackoffMs = 600'000;
inline constexpr std::uint64_t kMaxWorkers = 1024;

/// Apply environment fallbacks (MALEC_SWEEP_RETRIES, MALEC_SWEEP_BACKOFF_MS
/// — strict parses, 0/unset = keep the field's current value) and
/// range-check every knob, the task timeout included; violations abort
/// with the offending name and limit. Called by malec_bench before
/// coordinating and directly by the knob death tests.
void resolveSweepTuning(SweepOptions& sw);

/// Run `spec` sharded across worker processes (see file comment). Returns
/// the process exit code: 0 on success, 3 when quarantined tasks kept the
/// grid from completing (their failure history is reported per task).
[[nodiscard]] int runSuiteCoordinated(const sim::ExperimentSpec& spec,
                                      const sim::SuiteOptions& opts,
                                      const SweepOptions& sweep,
                                      const std::vector<sim::ResultSink*>& sinks);

/// Worker entry (`malec_bench --worker`): resolve the same grid, run task
/// `task` with the exact RunConfig the in-process matrix would build, and
/// write the result file to `result_path`. Returns the worker exit code.
[[nodiscard]] int runWorkerTask(const sim::ExperimentSpec& spec,
                                const sim::SuiteOptions& opts,
                                std::uint32_t task, std::uint32_t attempt,
                                const std::string& result_path);

}  // namespace malec::sweep
