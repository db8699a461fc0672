// Outside-in tracing of one simulation: forwarding decorators around the
// library's TraceSource, MemInterface and ResultSink seams, and a run
// function that assembles the same stack sim::runOne builds — so every
// per-layer number is measured at a public boundary, with no
// instrumentation inside src/.
//
// tracedRun() mirrors runOne's full-run path (safety bound, metric
// derivation, energy report); the harness holds every traced RunOutput
// against runOne's under sim::diffOutputs, so a drift between the two is a
// failed check, not a silently different measurement.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/mem_interface.h"
#include "sim/experiment.h"
#include "sim/sinks.h"
#include "trace/record.h"

namespace perfbench {

/// Host time (ns) and call counts gathered at the layer boundaries of one
/// or more traced runs. Plain sums: per-thread instances are merged with
/// add() after a parallel sweep.
struct LayerCounters {
  // trace: TraceSource::next
  std::int64_t next_ns = 0;
  std::uint64_t next_calls = 0;
  // core: the MemInterface calls CoreModel makes. submit_ns also covers
  // canAcceptLoad/Store and notifyStoreCommit (handing ops over).
  std::int64_t begin_cycle_ns = 0;
  std::int64_t submit_ns = 0;
  std::int64_t end_cycle_ns = 0;
  std::int64_t drain_ns = 0;
  std::uint64_t end_cycle_calls = 0;
  std::uint64_t submit_calls = 0;
  std::uint64_t submit_rejects = 0;  ///< canAccept* refusals + failed submits
  // cpu: CoreModel::run, inclusive of the calls above and checkpoint hooks
  std::int64_t core_run_ns = 0;
  // energy: metric derivation + EnergyAccount::report
  std::int64_t report_ns = 0;
  // sim: stack construction (energies, source, interface, core)
  std::int64_t build_ns = 0;
  std::uint64_t runs = 0;
  // ckpt
  std::uint64_t ckpt_saves = 0;
  std::int64_t ckpt_save_ns = 0;   ///< serialize into a StateWriter
  std::int64_t ckpt_write_ns = 0;  ///< StateWriter::writeTo (write + fsync)
  std::uint64_t ckpt_bytes = 0;
  std::int64_t ckpt_restore_ns = 0;

  void add(const LayerCounters& o);
};

/// Checkpoint behaviour of one traced run. `save_path` + `save_every`
/// snapshot the full state every `save_every` retired instructions (the
/// ckpt_out/ckpt_every counterpart); `restore_path` resumes from such a
/// snapshot (the start_ckpt counterpart). The file holds the same sections
/// runOne writes, minus the binding meta section.
struct TracedCkpt {
  std::string save_path;
  std::uint64_t save_every = 0;
  std::string restore_path;
};

/// Run `rc` on a decorated stack, adding its boundary timings to `lc`.
/// Synthetic workloads and whole-file trace replays only (no instruction
/// cap on a trace, no sample plan).
[[nodiscard]] malec::sim::RunOutput tracedRun(const malec::sim::RunConfig& rc,
                                              LayerCounters& lc,
                                              const TracedCkpt& ck = {});

/// Build the stack `rc` runs on and return the host time (hostNowNs) at
/// which the core pulled its first instruction. The probe serves that one
/// record and ends the stream, so it costs one stack construction.
[[nodiscard]] std::int64_t firstInstructionNs(const malec::sim::RunConfig& rc);

/// Forwarding ResultSink that times runResult() and endSuite() of `inner`.
class TimedSink final : public malec::sim::ResultSink {
 public:
  explicit TimedSink(malec::sim::ResultSink& inner) : inner_(inner) {}

  void beginSuite(const malec::sim::SuiteInfo& info) override;
  void runResult(const malec::sim::RunRecord& rec) override;
  void table(const malec::sim::Table& t, const std::string& name,
             int precision) override;
  void note(const std::string& text) override;
  void endSuite() override;

  [[nodiscard]] std::int64_t runResultNs() const { return run_result_ns_; }
  [[nodiscard]] std::int64_t endSuiteNs() const { return end_suite_ns_; }

 private:
  malec::sim::ResultSink& inner_;
  std::int64_t run_result_ns_ = 0;
  std::int64_t end_suite_ns_ = 0;
};

}  // namespace perfbench
