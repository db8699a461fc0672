// Phase planning: stream a trace (or any bounded TraceSource) through the
// interval profiler, cluster the interval feature vectors with the
// deterministic k-means, and emit a SamplePlan selecting one representative
// interval per phase — the `trace_tools phases` pipeline as a library call.
#pragma once

#include <cstdint>
#include <string>

#include "phase/interval_profiler.h"
#include "phase/kmeans.h"
#include "phase/sample_plan.h"

namespace malec::phase {

struct PlanParams {
  std::uint64_t interval_size = 10'000;  ///< instructions per interval
  std::uint32_t phases = 4;              ///< max clusters (clamped to N)
  /// Warmup prefix per pick. A warmup of about one interval re-primes the
  /// caches/TLB after a fast-forward gap (measured on the synthetic
  /// captures: cycle error falls under ~1% at warmup == interval, vs ~8%
  /// at a quarter of it); adjacent picks need none — the replay clamps the
  /// prefix to the gap actually skipped.
  std::uint64_t warmup_instructions = 10'000;
  std::uint64_t seed = 1;  ///< k-means seeding RNG
};

/// Summary of a planning run (for CLI reports and tests).
struct PlanSummary {
  std::uint64_t intervals = 0;  ///< profiled interval count
  std::uint32_t clusters = 0;   ///< phases actually found
  std::uint32_t kmeans_iterations = 0;
};

/// Profile + cluster the trace at `trace_path` into `out` (bound to the
/// trace's record count and checksum). Returns false with the reader's
/// message in `err` when the trace cannot be opened or read to its end, or
/// holds no records — planning must never bind a plan to a half-read file.
/// A zero interval size or phase count is a caller bug and aborts.
/// `summary` (optional) receives the profiling/clustering statistics.
[[nodiscard]] bool buildSamplePlan(const std::string& trace_path,
                                   const PlanParams& params, SamplePlan& out,
                                   std::string& err,
                                   PlanSummary* summary = nullptr);

}  // namespace malec::phase
