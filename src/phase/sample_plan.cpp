#include "phase/sample_plan.h"

#include <algorithm>
#include <filesystem>
#include <optional>

#include "ckpt/state_io.h"
#include "common/binio.h"
#include "trace/trace_io.h"

namespace malec::phase {

namespace {

/// The one section of a `.mplan` container.
constexpr const char* kPlanSection = "plan";
/// A pick on disk: its interval index, then its weight.
constexpr std::size_t kPickBytes = 16;

/// Shared invariant check for save (refuse to write garbage) and load
/// (refuse to trust it). `err` gets the first violation.
bool validate(const SamplePlan& plan, std::string& err) {
  if (plan.interval_size == 0) {
    err = "interval size is 0";
    return false;
  }
  if (plan.picks.empty()) {
    err = "plan selects no intervals";
    return false;
  }
  if (plan.trace_records == 0) {
    err = "plan binds to an empty trace";
    return false;
  }
  const std::uint64_t total = plan.totalIntervals();
  std::uint64_t weight_sum = 0;
  std::uint64_t prev_index = 0;
  for (std::size_t i = 0; i < plan.picks.size(); ++i) {
    const PhasePick& p = plan.picks[i];
    if (p.interval_index >= total) {
      err = "pick " + std::to_string(i) + " selects interval " +
            std::to_string(p.interval_index) + " of a " +
            std::to_string(total) + "-interval trace";
      return false;
    }
    if (i > 0 && p.interval_index <= prev_index) {
      err = "picks are not sorted by strictly increasing interval index";
      return false;
    }
    prev_index = p.interval_index;
    if (p.weight_instructions == 0) {
      err = "pick " + std::to_string(i) + " has zero weight";
      return false;
    }
    // Overflow-safe accumulation: a corrupt plan whose weights wrap mod
    // 2^64 back to trace_records must not pass the equality check below.
    if (p.weight_instructions > plan.trace_records - weight_sum) {
      err = "pick weights exceed the trace record count";
      return false;
    }
    weight_sum += p.weight_instructions;
  }
  if (weight_sum != plan.trace_records) {
    err = "pick weights sum to " + std::to_string(weight_sum) +
          " but the trace holds " + std::to_string(plan.trace_records) +
          " records";
    return false;
  }
  return true;
}

}  // namespace

std::vector<PlanSegment> SamplePlan::segments() const {
  // Picks are sorted, so `pos` (the previous segment's end) walks forward
  // exactly like the replay's sequential reader.
  std::vector<PlanSegment> segs;
  segs.reserve(picks.size());
  std::uint64_t pos = 0;
  for (const PhasePick& p : picks) {
    PlanSegment s;
    s.start = p.interval_index * interval_size;
    s.end = std::min(s.start + interval_size, trace_records);
    s.warm_start = s.start - std::min(warmup_instructions,
                                      s.start - std::min(s.start, pos));
    segs.push_back(s);
    pos = s.end;
  }
  return segs;
}

std::uint64_t SamplePlan::simulatedInstructions() const {
  std::uint64_t n = 0;
  for (const PlanSegment& s : segments()) n += s.end - s.warm_start;
  return n;
}

bool saveSamplePlan(const SamplePlan& plan, const std::string& path,
                    std::string& err) {
  if (!validate(plan, err)) {
    err = "refusing to write invalid plan '" + path + "': " + err;
    return false;
  }
  ckpt::StateWriter w(kPlanMagic, kPlanVersion);
  w.beginSection(kPlanSection);
  w.u64(plan.interval_size);
  w.u64(plan.warmup_instructions);
  w.u64(plan.trace_records);
  w.u64(plan.trace_checksum);
  w.u64(plan.picks.size());
  for (const PhasePick& p : plan.picks) {
    w.u64(p.interval_index);
    w.u64(p.weight_instructions);
  }
  w.endSection();
  return w.writeTo(path, err);
}

bool loadSamplePlan(const std::string& path, SamplePlan& out,
                    std::string& err) {
  const ckpt::StateReader rd(path, kPlanMagic, kPlanVersion, "sample-plan");
  if (!rd.ok()) {
    err = rd.error();
    return false;
  }
  // Read through view(), not openSection(): a container whose checksum
  // holds but whose section is missing or misshapen is a bad plan, and a
  // bad plan comes back as a value.
  std::optional<binio::SpanReader> body = rd.view(kPlanSection);
  if (!body) {
    err = "'" + path + "' holds no '" + kPlanSection + "' section";
    return false;
  }
  binio::SpanReader& r = *body;
  SamplePlan plan;
  plan.interval_size = r.u64();
  plan.warmup_instructions = r.u64();
  plan.trace_records = r.u64();
  plan.trace_checksum = r.u64();
  const std::uint64_t picks = r.u64();
  // Bound the count before it sizes the pick vector.
  if (!r.ok || picks > (r.n - r.at) / kPickBytes) {
    err = "'" + path + "': its " + std::to_string(r.n) +
          "-byte plan section is too short for the plan fields and " +
          std::to_string(picks) + " picks";
    return false;
  }
  plan.picks.resize(static_cast<std::size_t>(picks));
  for (PhasePick& p : plan.picks) {
    p.interval_index = r.u64();
    p.weight_instructions = r.u64();
  }
  if (r.at != r.n) {
    err = "'" + path + "': " + std::to_string(r.n - r.at) +
          " bytes follow the last pick of its plan section";
    return false;
  }
  if (!validate(plan, err)) {
    err = "'" + path + "': " + err;
    return false;
  }
  out = std::move(plan);
  return true;
}

std::string planSidecarPath(const std::string& trace_path) {
  return std::filesystem::path(trace_path)
      .replace_extension(".mplan")
      .string();
}

bool loadBoundPlan(const std::string& plan_path,
                   const std::string& trace_path, SamplePlan& out,
                   std::string& err) {
  SamplePlan plan;
  if (!loadSamplePlan(plan_path, plan, err)) return false;
  const trace::TraceReader rd(trace_path);
  if (!rd.ok()) {
    err = rd.error();
    return false;
  }
  // The record count and the header's record checksum identify the one
  // capture the picks were clustered from.
  if (plan.trace_records != rd.total() ||
      plan.trace_checksum != rd.expectedChecksum()) {
    err = "sample plan '" + plan_path +
          "' was computed from a different trace than '" + trace_path + "'";
    return false;
  }
  out = std::move(plan);
  return true;
}

}  // namespace malec::phase
