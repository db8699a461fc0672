#include "phase/sample_plan.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "common/binio.h"
#include "trace/trace_io.h"

namespace malec::phase {

namespace {

using binio::get32;
using binio::get64;
using binio::put32;
using binio::put64;

constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kEntryBytes = 16;

/// FNV-1a 64-bit over the entry payload — the same binio::fnv1a as the
/// trace v2 record checksum, from the offset basis.
std::uint64_t fnv1a(const std::uint8_t* p, std::size_t n) {
  return binio::fnv1a(binio::kFnvOffset, p, n);
}

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
  std::vector<std::uint8_t> entries(plan.picks.size() * kEntryBytes);
  for (std::size_t i = 0; i < plan.picks.size(); ++i) {
    put64(entries.data() + i * kEntryBytes, plan.picks[i].interval_index);
    put64(entries.data() + i * kEntryBytes + 8,
          plan.picks[i].weight_instructions);
  }
  std::uint8_t hdr[kHeaderBytes] = {};
  put32(hdr + 0, kPlanMagic);
  put32(hdr + 4, kPlanVersion);
  put64(hdr + 8, plan.interval_size);
  put64(hdr + 16, plan.warmup_instructions);
  put64(hdr + 24, plan.trace_records);
  put64(hdr + 32, plan.trace_checksum);
  put32(hdr + 40, static_cast<std::uint32_t>(plan.picks.size()));
  put32(hdr + 44, 0);  // reserved
  put64(hdr + 48, fnv1a(entries.data(), entries.size()));
  put64(hdr + 56, 0);  // reserved

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    err = "cannot open '" + path + "' for writing";
    return false;
  }
  const bool ok =
      std::fwrite(hdr, 1, sizeof hdr, f) == sizeof hdr &&
      std::fwrite(entries.data(), 1, entries.size(), f) == entries.size();
  if (std::fclose(f) != 0 || !ok) {
    err = "short write to '" + path + "'";
    return false;
  }
  return true;
}

bool loadSamplePlan(const std::string& path, SamplePlan& out,
                    std::string& err) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    err = "cannot open '" + path + "'";
    return false;
  }
  std::uint8_t hdr[kHeaderBytes];
  if (std::fread(hdr, 1, sizeof hdr, f) != sizeof hdr) {
    std::fclose(f);
    err = "'" + path + "' is too short to hold a sample-plan header";
    return false;
  }
  if (get32(hdr + 0) != kPlanMagic) {
    std::fclose(f);
    err = "'" + path + "' is not a MALEC sample plan (bad magic)";
    return false;
  }
  const std::uint32_t version = get32(hdr + 4);
  if (version != kPlanVersion) {
    std::fclose(f);
    err = "'" + path + "' has unsupported sample-plan version " +
          std::to_string(version);
    return false;
  }
  SamplePlan plan;
  plan.interval_size = get64(hdr + 8);
  plan.warmup_instructions = get64(hdr + 16);
  plan.trace_records = get64(hdr + 24);
  plan.trace_checksum = get64(hdr + 32);
  const std::uint32_t picks = get32(hdr + 40);

  // File size must match the header's pick count exactly — a truncated or
  // appended-to plan is a hard error, like a truncated trace.
  std::error_code ec;
  const std::uintmax_t file_size = std::filesystem::file_size(path, ec);
  if (ec) {
    std::fclose(f);
    err = "cannot stat '" + path + "': " + ec.message();
    return false;
  }
  const std::uint64_t expect =
      kHeaderBytes + static_cast<std::uint64_t>(picks) * kEntryBytes;
  if (static_cast<std::uint64_t>(file_size) != expect) {
    std::fclose(f);
    err = "'" + path + "' is truncated or corrupt: header promises " +
          std::to_string(picks) + " picks (" + std::to_string(expect) +
          " bytes) but the file holds " + std::to_string(file_size) +
          " bytes";
    return false;
  }

  std::vector<std::uint8_t> entries(static_cast<std::size_t>(picks) *
                                    kEntryBytes);
  const bool read_ok =
      std::fread(entries.data(), 1, entries.size(), f) == entries.size();
  std::fclose(f);
  if (!read_ok) {
    err = "short read from '" + path + "'";
    return false;
  }
  if (fnv1a(entries.data(), entries.size()) != get64(hdr + 48)) {
    err = "'" + path + "': pick checksum mismatch — the payload is corrupt";
    return false;
  }
  plan.picks.resize(picks);
  for (std::uint32_t i = 0; i < picks; ++i) {
    plan.picks[i].interval_index = get64(entries.data() + i * kEntryBytes);
    plan.picks[i].weight_instructions =
        get64(entries.data() + i * kEntryBytes + 8);
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
