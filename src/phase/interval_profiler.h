// BBV-style interval profiling for phase-sampled simulation.
//
// SimPoint's basic-block vectors are unavailable to a trace format that
// carries no PC, so the profiler's analogue is an address-region access
// histogram: the instruction stream is cut into fixed-size intervals and
// each interval is summarised as a feature vector — which address regions
// it touched (hashed page-region histogram), its load/store mix, its
// consecutive-load stride distribution, and the same-page/same-line follow
// fractions computed by a per-interval LocalityAnalyzer. Intervals with
// similar vectors behave similarly in the simulator, which is what the
// k-means phase clusterer (phase/kmeans.h) exploits.
#pragma once

#include <cstdint>
#include <vector>

#include "common/address.h"
#include "trace/locality_analyzer.h"
#include "trace/record.h"

namespace malec::phase {

/// One profiled interval: raw counters plus the normalised feature vector
/// handed to the clusterer. Every vector component is in [0, 1] so no
/// single feature family dominates the Euclidean distance.
struct IntervalFeatures {
  std::uint64_t index = 0;         ///< interval number, 0-based
  std::uint64_t instructions = 0;  ///< records in this interval
  std::uint64_t mem_refs = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::vector<double> vec;
};

/// Streaming profiler: feed records in program order, then finish().
class IntervalProfiler {
 public:
  /// `interval_size` instructions per interval (> 0). The final interval
  /// keeps its (shorter) actual length; the clusterer weights by
  /// instruction count.
  IntervalProfiler(AddressLayout layout, std::uint64_t interval_size);

  void observe(const trace::InstrRecord& r);

  /// Flush the trailing partial interval (if any) and return every interval
  /// in stream order. The profiler is spent afterwards.
  [[nodiscard]] std::vector<IntervalFeatures> finish();

 private:
  void closeInterval();

  AddressLayout layout_;
  std::uint64_t interval_size_;
  std::vector<IntervalFeatures> intervals_;

  // --- current-interval accumulators ---------------------------------------
  std::uint64_t in_interval_ = 0;
  std::uint64_t mem_refs_ = 0;
  std::uint64_t loads_ = 0;
  std::uint64_t stores_ = 0;
  std::vector<std::uint64_t> region_hist_;
  std::vector<std::uint64_t> stride_hist_;
  /// Per-interval locality analysis (same-page follow chains, same-line and
  /// store-page follow fractions) — one fresh analyzer per interval, so its
  /// access buffer never outgrows one interval.
  trace::LocalityAnalyzer loc_;
  bool have_prev_load_ = false;
  Addr prev_load_addr_ = 0;
};

}  // namespace malec::phase
