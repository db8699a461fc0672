// Sample plans: which intervals of a trace to simulate, with what warmup,
// and how to weight them — the contract between `trace_tools phases` (which
// writes a plan as a `.mplan` sidecar next to the trace) and the sampled
// replay mode of sim::runOne.
//
// On-disk `.mplan` format: see docs/FILE_FORMATS.md for the byte-level
// specification. Like `.mtrace` it is strict and versioned: magic + version,
// a checksum over the plan's header fields and its picks, an entry count
// validated against the file size at open, and the source trace's record
// count + checksum so a plan can never be applied to a different (or
// modified) trace than the one it was computed from.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace malec::phase {

/// Magic bytes + version identifying a MALEC sample-plan file ("MPLN").
inline constexpr std::uint32_t kPlanMagic = 0x4D504C4E;
inline constexpr std::uint32_t kPlanVersion = 2;

/// One selected phase: the representative interval and the instruction
/// weight of the whole cluster it stands for.
struct PhasePick {
  std::uint64_t interval_index = 0;
  /// Summed instruction count of every interval in this phase's cluster.
  /// Weights are stored as exact integer counts (not floating fractions):
  /// the picks' weight_instructions sum to exactly trace_records.
  std::uint64_t weight_instructions = 0;
};

/// One pick's stretch of the trace, as record indices: warmup runs over
/// [warm_start, start), measurement over [start, end).
struct PlanSegment {
  std::uint64_t warm_start = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// A validated sample plan. Invariants (enforced by load/save and by
/// MALEC_CHECKs in the sampled replay): picks sorted by strictly increasing
/// interval_index, every index < totalIntervals(), weights summing to
/// trace_records, interval_size > 0.
struct SamplePlan {
  std::uint64_t interval_size = 0;          ///< instructions per interval
  std::uint64_t warmup_instructions = 0;    ///< warmup prefix per pick
  std::uint64_t trace_records = 0;          ///< source trace record count
  std::uint64_t trace_checksum = 0;         ///< source trace's record checksum
  std::vector<PhasePick> picks;

  [[nodiscard]] bool empty() const { return picks.empty(); }
  /// Number of intervals the source trace divides into (last one partial).
  [[nodiscard]] std::uint64_t totalIntervals() const {
    return interval_size == 0
               ? 0
               : (trace_records + interval_size - 1) / interval_size;
  }
  /// Fractional weight of pick `i` (its cluster's instruction share).
  [[nodiscard]] double weight(std::size_t i) const {
    return static_cast<double>(picks[i].weight_instructions) /
           static_cast<double>(trace_records);
  }
  /// The trace stretches the sampled replay walks, one per pick in pick
  /// order. The warmup prefix is clamped at the trace start and at the
  /// previous segment's end: a pick adjacent to the previous one runs with
  /// whatever prefix the gap affords.
  [[nodiscard]] std::vector<PlanSegment> segments() const;
  /// Instructions the sampled replay actually simulates (warmup included) —
  /// the numerator of the advertised fast-forward ratio.
  [[nodiscard]] std::uint64_t simulatedInstructions() const;
};

/// Write `plan` to `path`. Returns false with a message in `err` on I/O
/// failure or an invariant violation (never writes an invalid plan).
bool saveSamplePlan(const SamplePlan& plan, const std::string& path,
                    std::string& err);

/// Read and fully validate a `.mplan` file. Returns false with a message in
/// `err` for anything malformed: bad magic/version, a file size that
/// disagrees with the pick count, a checksum mismatch (any changed header
/// field or pick), unsorted or out-of-range picks, weights that do not sum
/// to the trace record count.
bool loadSamplePlan(const std::string& path, SamplePlan& out,
                    std::string& err);

/// The conventional sidecar path for a trace: "dir/gcc.mtrace" ->
/// "dir/gcc.mplan" (extension replaced).
[[nodiscard]] std::string planSidecarPath(const std::string& trace_path);

/// Load the plan at `plan_path` and check that it binds to the trace at
/// `trace_path` — its record count and record checksum. THE binding
/// decision: the sampled replay, the trace-directory scan, suite validation
/// and the phase_sampled suite's skip gate all call this, so no gate can
/// admit what the replay rejects.
/// Returns false with the reason in `err` (unreadable plan, unreadable
/// trace, or a plan computed from a different trace).
bool loadBoundPlan(const std::string& plan_path,
                   const std::string& trace_path, SamplePlan& out,
                   std::string& err);

}  // namespace malec::phase
