// The three benchmark workloads (README.md in this directory says why each
// exists). A workload sets itself up once, then runs measured iterations
// through the library entry points (runOne / runSuite) or traced
// iterations through the decorated stack of traced_stack.h, checking its
// own outputs as it goes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/experiment.h"

namespace perfbench {

/// Correctness checks of one harness process. Every check counts in
/// `attempted`; the first few failures keep their message.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what);
};

/// One measured (untraced) iteration.
struct Iteration {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t instructions = 0;  ///< simulated instructions retired
  std::uint64_t digest = 0;        ///< FNV-1a over every run's encoded output
  std::vector<double> query_ms;    ///< store load+query latencies (fig4a)
};

/// One traced iteration: its wall time, digest and per-layer metrics.
struct TracedIteration {
  double wall_s = 0.0;
  std::uint64_t digest = 0;
  std::map<std::string, double> layers;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything before the first simulated instruction: registry and
  /// preset resolution, trace capture, suite-context resolution.
  virtual void setUp() = 0;
  /// The first run of the measured phase (the set-up probe builds its stack).
  [[nodiscard]] virtual malec::sim::RunConfig firstRun() const = 0;
  /// One iteration through the library entry points.
  virtual Iteration runOnce(Checks& checks) = 0;
  /// One iteration on the decorated stack. Each traced RunOutput is held
  /// against the one runOnce produced, so runOnce must have run first.
  virtual TracedIteration runTraced(Checks& checks) = 0;
  /// Simulated results reported for information only (never gated).
  [[nodiscard]] virtual std::map<std::string, double> modelNumbers() const {
    return {};
  }
  /// Threads an iteration runs on (the harness times its host-speed
  /// reference on as many).
  [[nodiscard]] virtual unsigned threads() const { return 1; }
};

/// Build workload `name`; nullptr when the name is unknown. `seed` is the
/// simulator seed, `jobs` the sweep's worker threads and `workdir` an
/// existing directory for captures, checkpoints and stores.
[[nodiscard]] std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                                     std::uint64_t seed,
                                                     unsigned jobs,
                                                     const std::string& workdir);

}  // namespace perfbench
