#include "store/result_store.h"

#include <cstring>

#include "ckpt/state_io.h"
#include "common/check.h"
#include "sweep/result_codec.h"

namespace malec::store {

namespace {

/// Doubles are compared as bit patterns everywhere in this file: the
/// directory is a cache of the blob's values, and "equal" means the exact
/// bits a re-run would produce — an epsilon here would let a corrupted
/// index hide behind rounding.
std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

}  // namespace

bool ResultStore::load(const std::string& path, std::string& err) {
  segments_.clear();
  runs_.clear();
  ckpt::StateReader r(path, kStoreMagic, kStoreVersion, "result store");
  if (!r.ok()) {
    err = r.error();
    return false;
  }

  r.openSection("store_meta");
  const std::uint32_t segment_count = r.u32();
  const std::uint64_t run_count = r.u64();
  r.endSection();

  r.openSection("segments");
  for (std::uint32_t s = 0; s < segment_count; ++s) {
    StoreSegment seg;
    seg.suite = r.str();
    seg.fingerprint = r.u64();
    seg.instructions = r.u64();
    seg.seed = r.u64();
    seg.run_count = r.u32();
    for (const StoreSegment& prev : segments_) {
      if (prev.fingerprint == seg.fingerprint) {
        err = "'" + path + "': duplicate segment fingerprint " +
              std::to_string(seg.fingerprint) + " — the store is corrupt";
        return false;
      }
    }
    for (std::uint32_t i = 0; i < seg.run_count; ++i) {
      StoreRun run;
      run.segment = s;
      run.seed = seg.seed;
      run.instructions = seg.instructions;
      run.blob.resize(r.count(1));
      r.bytes(run.blob.data(), run.blob.size());
      runs_.push_back(std::move(run));
    }
    segments_.push_back(std::move(seg));
  }
  r.endSection();
  if (runs_.size() != run_count) {
    err = "'" + path + "': store_meta promises " + std::to_string(run_count) +
          " runs but the segments hold " + std::to_string(runs_.size()) +
          " — the store is corrupt";
    return false;
  }

  // The columnar directory, cross-checked field by field against the
  // decoded blobs: a query must never answer from an index the payload
  // disagrees with.
  r.openSection("columns");
  const std::uint64_t dir_count = r.u64();
  if (dir_count != run_count) {
    err = "'" + path + "': column directory holds " +
          std::to_string(dir_count) + " entries for " +
          std::to_string(run_count) + " runs — the store is corrupt";
    return false;
  }
  for (StoreRun& run : runs_) run.segment = r.u32();
  for (StoreRun& run : runs_) run.workload = r.str();
  for (StoreRun& run : runs_) run.config = r.str();
  for (StoreRun& run : runs_) run.seed = r.u64();
  for (StoreRun& run : runs_) run.instructions = r.u64();
  for (StoreRun& run : runs_) run.cycles = r.u64();
  for (StoreRun& run : runs_) run.ipc = r.f64();
  for (StoreRun& run : runs_) run.total_pj = r.f64();
  r.endSection();

  std::size_t at = 0;
  for (std::uint32_t s = 0; s < segment_count; ++s) {
    const StoreSegment& seg = segments_[s];
    for (std::uint32_t i = 0; i < seg.run_count; ++i, ++at) {
      const StoreRun& run = runs_[at];
      sim::RunOutput out;
      std::string decode_err;
      const bool index_ok =
          run.segment == s && run.seed == seg.seed &&
          run.instructions == seg.instructions &&
          sweep::decodeRunOutput(run.blob.data(), run.blob.size(), out,
                                 decode_err) &&
          out.benchmark == run.workload && out.config == run.config &&
          out.cycles == run.cycles && bits(out.ipc) == bits(run.ipc) &&
          bits(out.total_pj) == bits(run.total_pj);
      if (!index_ok) {
        err = "'" + path + "': column directory disagrees with run " +
              std::to_string(at) + "'s blob" +
              (decode_err.empty() ? "" : " (" + decode_err + ")") +
              " — the store is corrupt";
        return false;
      }
    }
  }
  return true;
}

void ResultStore::appendSegment(const StoreSegment& meta,
                                const std::vector<RunEntry>& runs) {
  MALEC_CHECK_MSG(!runs.empty(), "cannot append an empty store segment");
  if (findSegment(meta.fingerprint) != nullptr) {
    const std::string msg =
        "store already holds a segment for grid fingerprint " +
        std::to_string(meta.fingerprint) + " (suite '" + meta.suite +
        "') — appending it again would double every query row";
    MALEC_CHECK_MSG(false, msg.c_str());
  }
  StoreSegment seg = meta;
  seg.run_count = static_cast<std::uint32_t>(runs.size());
  const auto segment_idx = static_cast<std::uint32_t>(segments_.size());
  for (const RunEntry& e : runs) {
    MALEC_CHECK_MSG(e.out != nullptr, "store segment entry without a result");
    StoreRun run;
    run.segment = segment_idx;
    run.workload = e.workload;
    run.config = e.config;
    run.seed = seg.seed;
    run.instructions = seg.instructions;
    run.cycles = e.out->cycles;
    run.ipc = e.out->ipc;
    run.total_pj = e.out->total_pj;
    run.blob = sweep::encodeRunOutput(*e.out);
    runs_.push_back(std::move(run));
  }
  segments_.push_back(std::move(seg));
}

bool ResultStore::save(const std::string& path, std::string& err) const {
  ckpt::StateWriter w(kStoreMagic, kStoreVersion);

  w.beginSection("store_meta");
  w.u32(static_cast<std::uint32_t>(segments_.size()));
  w.u64(static_cast<std::uint64_t>(runs_.size()));
  w.endSection();

  w.beginSection("segments");
  std::size_t at = 0;
  for (const StoreSegment& seg : segments_) {
    w.str(seg.suite);
    w.u64(seg.fingerprint);
    w.u64(seg.instructions);
    w.u64(seg.seed);
    w.u32(seg.run_count);
    for (std::uint32_t i = 0; i < seg.run_count; ++i, ++at) {
      const StoreRun& run = runs_[at];
      w.u64(static_cast<std::uint64_t>(run.blob.size()));
      w.bytes(run.blob.data(), run.blob.size());
    }
  }
  w.endSection();

  w.beginSection("columns");
  w.u64(static_cast<std::uint64_t>(runs_.size()));
  for (const StoreRun& run : runs_) w.u32(run.segment);
  for (const StoreRun& run : runs_) w.str(run.workload);
  for (const StoreRun& run : runs_) w.str(run.config);
  for (const StoreRun& run : runs_) w.u64(run.seed);
  for (const StoreRun& run : runs_) w.u64(run.instructions);
  for (const StoreRun& run : runs_) w.u64(run.cycles);
  for (const StoreRun& run : runs_) w.f64(run.ipc);
  for (const StoreRun& run : runs_) w.f64(run.total_pj);
  w.endSection();

  return w.writeTo(path, err);
}

const StoreSegment* ResultStore::findSegment(std::uint64_t fingerprint) const {
  for (const StoreSegment& seg : segments_)
    if (seg.fingerprint == fingerprint) return &seg;
  return nullptr;
}

bool ResultStore::decodeRun(std::size_t idx, sim::RunOutput& out,
                            std::string& err) const {
  MALEC_CHECK_MSG(idx < runs_.size(), "store run index out of range");
  return sweep::decodeRunOutput(runs_[idx].blob.data(), runs_[idx].blob.size(),
                                out, err);
}

}  // namespace malec::store
