#include "phase/planner.h"

#include <algorithm>

#include "common/check.h"
#include "trace/trace_io.h"

namespace malec::phase {

SamplePlan buildSamplePlan(const std::string& trace_path,
                           const PlanParams& params, PlanSummary* summary) {
  MALEC_CHECK_MSG(params.interval_size > 0, "interval size must be > 0");
  MALEC_CHECK_MSG(params.phases > 0, "phase count must be > 0");

  trace::TraceReader rd(trace_path);
  if (!rd.ok()) MALEC_CHECK_MSG(false, rd.error().c_str());
  IntervalProfiler profiler(rd.layout(), params.interval_size);
  trace::InstrRecord r;
  while (rd.next(r)) profiler.observe(r);
  if (!rd.ok()) MALEC_CHECK_MSG(false, rd.error().c_str());
  MALEC_CHECK_MSG(rd.total() > 0, "cannot plan phases over an empty trace");

  const std::vector<IntervalFeatures> intervals = profiler.finish();
  std::vector<std::vector<double>> points;
  std::vector<std::uint64_t> weights;
  points.reserve(intervals.size());
  weights.reserve(intervals.size());
  for (const IntervalFeatures& f : intervals) {
    points.push_back(f.vec);
    weights.push_back(f.instructions);
  }

  const KMeansResult km =
      kmeansCluster(points, weights, params.phases, params.seed);

  SamplePlan plan;
  plan.interval_size = params.interval_size;
  plan.warmup_instructions = params.warmup_instructions;
  plan.trace_records = rd.total();
  plan.trace_checksum = rd.expectedChecksum();
  plan.picks.resize(km.clusters);
  for (std::uint32_t c = 0; c < km.clusters; ++c) {
    plan.picks[c].interval_index = km.representative[c];
    plan.picks[c].weight_instructions = km.weight[c];
  }
  std::sort(plan.picks.begin(), plan.picks.end(),
            [](const PhasePick& a, const PhasePick& b) {
              return a.interval_index < b.interval_index;
            });

  if (summary != nullptr) {
    summary->intervals = intervals.size();
    summary->clusters = km.clusters;
    summary->kmeans_iterations = km.iterations;
  }
  return plan;
}

}  // namespace malec::phase
