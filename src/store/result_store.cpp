#include "store/result_store.h"

#include <optional>
#include <string_view>

#include "ckpt/state_io.h"
#include "common/binio.h"
#include "common/check.h"
#include "sweep/result_codec.h"

namespace malec::store {

bool ResultStore::load(const std::string& path, std::string& err) {
  segments_.clear();
  runs_.clear();
  ckpt::StateReader rd(path, kStoreMagic, kStoreVersion, "result store");
  if (!rd.ok()) {
    err = rd.error();
    return false;
  }
  // Read through view(), not openSection(): a container whose checksum
  // holds but whose sections are missing or misshapen is a bad store, and
  // a bad store comes back as a value.
  std::optional<binio::SpanReader> meta = rd.view("store_meta");
  std::optional<binio::SpanReader> body = rd.view("segments");
  if (!meta || !body) {
    err = "'" + path + "' holds no '" + (meta ? "segments" : "store_meta") +
          "' section";
    return false;
  }
  const std::uint32_t segment_count = meta->u32();
  const std::uint64_t run_count = meta->u64();
  if (!meta->ok || meta->at != meta->n) {
    err = "'" + path + "': its store_meta section holds " +
          std::to_string(meta->n) + " bytes, not 12 — the store is corrupt";
    return false;
  }

  binio::SpanReader& r = *body;
  for (std::uint32_t s = 0; s < segment_count; ++s) {
    StoreSegment seg;
    seg.suite = std::string(r.bytes(r.u64()));
    seg.fingerprint = r.u64();
    seg.instructions = r.u64();
    seg.seed = r.u64();
    seg.run_count = r.u32();
    if (!r.ok) {
      err = "'" + path + "': the segments section ends inside segment " +
            std::to_string(s) + "'s header — the store is corrupt";
      return false;
    }
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
      const std::uint64_t len = r.u64();
      const std::string_view blob = r.bytes(len);
      if (!r.ok) {
        err = "'" + path + "': run " + std::to_string(runs_.size()) +
              "'s blob of " + std::to_string(len) +
              " bytes overruns the segments section — the store is corrupt";
        return false;
      }
      run.blob.assign(blob.begin(), blob.end());
      // The blob is the record: the query columns are read out of it. The
      // walk checks the whole blob, but its energy entries stay in the
      // blob.
      sim::RunOutput out;
      std::string decode_err;
      if (!sweep::decodeRunOutput(run.blob.data(), run.blob.size(), out,
                                  decode_err,
                                  sweep::Decode::kNoEnergyDetail)) {
        err = "'" + path + "': run " + std::to_string(runs_.size()) +
              "'s blob does not decode (" + decode_err +
              ") — the store is corrupt";
        return false;
      }
      run.workload = std::move(out.benchmark);
      run.config = std::move(out.config);
      run.cycles = out.cycles;
      run.ipc = out.ipc;
      run.total_pj = out.total_pj;
      runs_.push_back(std::move(run));
    }
    segments_.push_back(std::move(seg));
  }
  if (r.at != r.n) {
    err = "'" + path + "': " + std::to_string(r.n - r.at) +
          " bytes follow the last segment — the store is corrupt";
    return false;
  }
  if (runs_.size() != run_count) {
    err = "'" + path + "': store_meta promises " + std::to_string(run_count) +
          " runs but the segments hold " + std::to_string(runs_.size()) +
          " — the store is corrupt";
    return false;
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

  return w.writeTo(path, err);
}

const StoreSegment* ResultStore::findSegment(std::uint64_t fingerprint) const {
  for (const StoreSegment& seg : segments_)
    if (seg.fingerprint == fingerprint) return &seg;
  return nullptr;
}

}  // namespace malec::store
