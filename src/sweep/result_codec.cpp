#include "sweep/result_codec.h"

#include <iterator>
#include <string_view>

#include "ckpt/state_io.h"
#include "common/binio.h"
#include "common/check.h"

namespace malec::sweep {

using binio::putF64;
using binio::putStr;
using binio::putU32;
using binio::putU64;

namespace {

constexpr std::size_t kIfcFields = std::size(core::kInterfaceCounterFields);
constexpr std::size_t kCoreFields = std::size(cpu::kCoreScaledCounterFields);

}  // namespace

std::vector<std::uint8_t> encodeRunOutput(const sim::RunOutput& out) {
  std::vector<std::uint8_t> b;
  putStr(b, out.benchmark);
  putStr(b, out.config);
  putU64(b, out.cycles);
  putU64(b, out.instructions);
  putF64(b, out.ipc);
  putF64(b, out.dynamic_pj);
  putF64(b, out.leakage_pj);
  putF64(b, out.total_pj);
  putF64(b, out.way_coverage);
  putF64(b, out.l1_load_miss_rate);
  putF64(b, out.merged_load_fraction);
  // Field counts travel explicitly: a blob written by a build with a new
  // counter must fail a decode in an old build at the count, not shift
  // every later field.
  putU32(b, static_cast<std::uint32_t>(kIfcFields));
  for (const auto field : core::kInterfaceCounterFields)
    putU64(b, out.ifc.*field);
  putU64(b, out.core.cycles);
  putU64(b, out.core.instructions);
  putU32(b, static_cast<std::uint32_t>(kCoreFields));
  for (const auto field : cpu::kCoreScaledCounterFields)
    putU64(b, out.core.*field);
  putU32(b, static_cast<std::uint32_t>(out.energy_detail.all().size()));
  for (const auto& [name, value] : out.energy_detail.all()) {
    putStr(b, name);
    putF64(b, value);
  }
  return b;
}

bool decodeRunOutput(const std::uint8_t* p, std::size_t n,
                     sim::RunOutput& out, std::string& err, Decode what) {
  binio::SpanReader r{p, n};
  out = sim::RunOutput{};
  out.benchmark = r.str();
  out.config = r.str();
  out.cycles = r.u64();
  out.instructions = r.u64();
  out.ipc = r.f64();
  out.dynamic_pj = r.f64();
  out.leakage_pj = r.f64();
  out.total_pj = r.f64();
  out.way_coverage = r.f64();
  out.l1_load_miss_rate = r.f64();
  out.merged_load_fraction = r.f64();
  if (r.u32() != kIfcFields) {
    err = "result blob interface-counter count mismatch";
    return false;
  }
  for (const auto field : core::kInterfaceCounterFields)
    out.ifc.*field = r.u64();
  out.core.cycles = r.u64();
  out.core.instructions = r.u64();
  if (r.u32() != kCoreFields) {
    err = "result blob core-counter count mismatch";
    return false;
  }
  for (const auto field : cpu::kCoreScaledCounterFields)
    out.core.*field = r.u64();
  const std::uint32_t energy_entries = r.u32();
  for (std::uint32_t i = 0; r.ok && i < energy_entries; ++i) {
    const std::string_view name = r.strView();
    const double value = r.f64();
    if (r.ok && what == Decode::kFull)
      out.energy_detail.set(std::string(name), value);
  }
  if (!r.ok) {
    err = "result blob is truncated or malformed";
    return false;
  }
  if (r.at != r.n) {
    err = "result blob has trailing bytes";
    return false;
  }
  return true;
}

void writeResultFile(const std::string& path, std::uint64_t fingerprint,
                     std::uint32_t task, std::uint32_t attempt,
                     const sim::RunOutput& out) {
  const std::vector<std::uint8_t> blob = encodeRunOutput(out);
  ckpt::StateWriter w;
  w.beginSection("binding");
  w.u64(fingerprint);
  w.u32(task);
  w.u32(attempt);
  w.endSection();
  w.beginSection("run_output");
  w.u64(blob.size());
  w.bytes(blob.data(), blob.size());
  w.endSection();
  std::string err;
  if (!w.writeTo(path, err)) MALEC_CHECK_MSG(false, err.c_str());
}

bool readResultFile(const std::string& path, std::uint64_t fingerprint,
                    std::uint32_t task, std::uint32_t attempt,
                    sim::RunOutput& out, std::vector<std::uint8_t>& blob,
                    std::string& err) {
  ckpt::StateReader r(path);
  if (!r.ok()) {
    err = r.error();
    return false;
  }
  if (!r.hasSection("binding") || !r.hasSection("run_output")) {
    err = "'" + path + "' is not a sweep result file";
    return false;
  }
  r.openSection("binding");
  const std::uint64_t got_fp = r.u64();
  const std::uint32_t got_task = r.u32();
  const std::uint32_t got_attempt = r.u32();
  r.endSection();
  if (got_fp != fingerprint || got_task != task || got_attempt != attempt) {
    err = "'" + path + "' binds to a different (grid, task, attempt) — "
          "stale or foreign result file";
    return false;
  }
  r.openSection("run_output");
  blob.assign(r.count(1), 0);
  r.bytes(blob.data(), blob.size());
  r.endSection();
  return decodeRunOutput(blob.data(), blob.size(), out, err);
}

}  // namespace malec::sweep
