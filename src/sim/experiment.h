// Experiment runner: one (benchmark, interface configuration) simulation,
// producing timing, behavioural and energy results — the unit of work every
// bench binary and example builds on.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/interface_config.h"
#include "core/mem_interface.h"
#include "cpu/core_model.h"
#include "energy/energy_account.h"
#include "trace/workload_profile.h"

namespace malec::sim {

struct RunConfig {
  /// The workload doubles as the trace-source selector: a profile with an
  /// empty trace_path is synthesised (the default), one with a trace_path
  /// replays that captured file — through the same runOne/runManyParallel/
  /// runMatrixParallel and suite paths, with the synthetic path bit-identical
  /// to what it always produced.
  trace::WorkloadProfile workload;
  core::InterfaceConfig interface_cfg;
  core::SystemConfig system;
  /// Instructions to simulate. The paper uses 1B-instruction Simpoint
  /// phases; the synthetic workloads reach steady state much faster. For a
  /// replayed trace this caps the stream (0 = the whole file).
  std::uint64_t instructions = 200'000;
  std::uint64_t seed = 1;

  // --- checkpointing (docs/ARCHITECTURE.md "Checkpoint determinism") -------
  /// Non-empty = write a full-state `.mckpt` checkpoint to this path every
  /// `ckpt_every` retired instructions (0 with an output path set is a hard
  /// error — a checkpoint file with no cadence would silently never be
  /// written). Each checkpoint atomically replaces the previous one, so the
  /// file always holds the newest resumable state. Not available in sampled
  /// mode.
  std::string ckpt_out;
  std::uint64_t ckpt_every = 0;
  /// Non-empty = restore this `.mckpt` and continue instead of starting
  /// fresh. The checkpoint must bind to this exact run — same interface
  /// and system configuration, seed, instruction budget and workload
  /// (trace binding by record count + checksum, like `.mplan`); anything
  /// else is a hard error. The continued run's RunOutput and energy
  /// report are bit-identical to the run that never stopped.
  std::string start_ckpt;
};

struct RunOutput {
  std::string benchmark;
  std::string config;
  Cycle cycles = 0;
  std::uint64_t instructions = 0;
  double ipc = 0.0;
  double dynamic_pj = 0.0;
  double leakage_pj = 0.0;
  double total_pj = 0.0;
  double way_coverage = 0.0;    ///< reduced-access fraction of way lookups
  double l1_load_miss_rate = 0.0;
  double merged_load_fraction = 0.0;  ///< of submitted loads
  core::InterfaceStats ifc;
  cpu::CoreStats core;
  StatSet energy_detail;
};

/// Builds a forwarding decorator in front of a run's interface: given the
/// interface the configuration built, returns the one the core drives. The
/// decorator forwards every call it does not observe; one that keeps the
/// MemInterface default for the quiet hooks makes the core step every
/// cycle. The stack owns what this returns.
using InterfaceDecorator =
    std::function<std::unique_ptr<core::MemInterface>(core::MemInterface&)>;

/// The simulated stack under a core: `cfg`'s energies defined on the
/// caller's account, the interface makeInterface() builds over them, and
/// optionally a decorator in front of it. runOne builds every run's one
/// stack here, and the tests build theirs; a decorator attaches here. The
/// account stays caller-owned and must outlive the stack: every interface
/// component counts into it.
class RunStack {
 public:
  RunStack(const core::InterfaceConfig& cfg, const core::SystemConfig& sys,
           energy::EnergyAccount& ea, const InterfaceDecorator& decorate = {});

  /// The interface the core drives: the decorator when there is one.
  [[nodiscard]] core::MemInterface& ifc() const { return *front_; }
  [[nodiscard]] energy::EnergyAccount& account() const { return ea_; }

 private:
  energy::EnergyAccount& ea_;
  std::unique_ptr<core::MemInterface> inner_;
  std::unique_ptr<core::MemInterface> decorator_;
  core::MemInterface* front_ = nullptr;
};

/// Run one simulation: a walk of measurement windows over one RunStack,
/// folded into one output. A direct run has one window, the whole stream
/// up to the instruction cap, folded with weight 1, so its output is
/// exactly what it measured. A workload with a sample_plan_path runs in
/// phase-sampled mode: its windows are the plan's representative
/// intervals, each primed by a warm-up prefix left out of the counts, and
/// the output is the weighted phase combination estimating the full
/// replay. rc.instructions must be 0 in that mode. Either way the output
/// is bit-identical across repeated and parallel runs. A synthetic run
/// may generate its stream on a helper thread when the process has a CPU
/// to spare (trace::RunAheadSource; the rule is at its use in
/// experiment.cpp), and a pooled grid row reads it from a tape; the
/// records, and so the output, are the same.
/// `decorate` puts a decorator in front of the run's interface (see
/// RunStack): a test seam, under which a decorator that only forwards
/// moves no number.
[[nodiscard]] RunOutput runOne(const RunConfig& rc,
                               const InterfaceDecorator& decorate = {});

/// Run a batch of arbitrary configurations across a std::thread pool.
/// Every run is fully independent (own EnergyAccount, trace generator and
/// RNG state seeded from its RunConfig), so outputs are bit-identical to a
/// serial loop over runOne(); results come back in input order. `jobs` = 0
/// uses parallelJobs(). A serial batch (one job or one run) calls runOne;
/// pool workers read their generators inline, never on a helper thread.
[[nodiscard]] std::vector<RunOutput> runManyParallel(
    const std::vector<RunConfig>& rcs, unsigned jobs = 0);

/// Full (workload x configuration) cross product as ONE parallel batch —
/// the whole pool stays busy instead of being capped at one row's config
/// count. Result is indexed [workload][config]; `jobs` = 1 runs the cells
/// serially in that order through runOne, 0 uses parallelJobs(). On a
/// pool, a synthetic row of two or more configurations with a nonzero
/// budget generates its stream once: the row's first cell records it
/// onto a trace::StreamTape, which every cell of the row reads through
/// its own cursor, so each cell equals its runOne bit for bit.
[[nodiscard]] std::vector<std::vector<RunOutput>> runMatrixParallel(
    const std::vector<trace::WorkloadProfile>& wls,
    const std::vector<core::InterfaceConfig>& cfgs,
    std::uint64_t instructions, std::uint64_t seed = 1, unsigned jobs = 0);

/// Capture the exact instruction stream `rc` would simulate into a
/// `.mtrace` file at `path` (header carries rc.system.layout). Replaying the
/// file through runOne() is bit-identical to running `rc` directly. Aborts
/// on I/O failure or if `rc` already names a trace. Returns records written.
std::uint64_t captureTrace(const RunConfig& rc, const std::string& path);

/// Instruction budget honouring the MALEC_INSTR environment override
/// (lets CI shrink runs; benches default to `dflt`). A malformed value
/// aborts — "MALEC_INSTR=1e6" must never quietly simulate one instruction.
[[nodiscard]] std::uint64_t instructionBudget(std::uint64_t dflt);

/// Worker-thread count for parallel sweeps, honouring the MALEC_JOBS
/// environment override (alongside MALEC_INSTR; see instructionBudget).
/// Defaults to the CPUs the process may run on (its affinity mask, the
/// count `nproc` prints), never less than 1. Malformed values abort, like
/// instructionBudget.
[[nodiscard]] unsigned parallelJobs(unsigned dflt = 0);

/// Strict base-10 parse shared by every numeric knob (env vars and CLI
/// flags): the whole string must be digits and fit in 64 bits, anything
/// else aborts with a message naming `what` — no atoll-style "10abc" -> 10
/// or "abc" -> 0 silent acceptance.
[[nodiscard]] std::uint64_t parseU64Strict(const std::string& s,
                                           const char* what);

}  // namespace malec::sim
