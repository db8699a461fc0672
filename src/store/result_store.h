// The `.mstore` v3 result store: a durable, queryable home for sweep
// results — the layer between "a sweep printed tables" and "thousands of
// configs, millions of runs".
//
// A store is a StateIO container (src/ckpt/state_io.h: magic, version,
// payload checksum, atomic temp+rename writes — the same machinery as
// `.mckpt`/`.mres`, under the "MSTR" magic) holding append-only SEGMENTS.
// One segment = one executed grid: its suite name, resolved budget and
// seed, the grid fingerprint (sim::gridFingerprintParts — the identity the
// sweep journal binds to) and every cell's full RunOutput encoded with the
// sweep result codec. Load walks every blob with the codec's checks and
// reads each run's query fields (workload / config / cycles / IPC /
// energy) out of it, so there is no separate index that could disagree
// with the payload. The energy entries are bounds-checked but not built
// into a StatSet until decodeRun() asks for a run's full RunOutput.
//
// Two writers append segments: StoreSink (suite grids, fed by runSuite or
// the sweep coordinator — a `--resume` of a journal lands there too) and
// the explorer (its search rounds).
//
// Like every MALEC format the store is strict: bad magic, version skew,
// truncation, checksum mismatch, count mismatches, duplicate segment
// fingerprints and a blob that does not decode all fail loudly. Byte-level
// layout: docs/FILE_FORMATS.md. Writes rewrite the whole file atomically —
// append = load + appendSegment + save — which keeps the on-disk bytes a
// pure function of the segment history, the property the CI determinism
// byte-diffs pin.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.h"

namespace malec::store {

/// Magic bytes + version identifying a MALEC result store ("MSTR").
inline constexpr std::uint32_t kStoreMagic = 0x4D535452;
inline constexpr std::uint32_t kStoreVersion = 3;

/// One appended grid: the identity every run in it shares.
struct StoreSegment {
  std::string suite;             ///< suite (or explore round) name
  std::uint64_t fingerprint = 0; ///< sim::gridFingerprintParts identity
  std::uint64_t instructions = 0;
  std::uint64_t seed = 0;
  std::uint32_t run_count = 0;
};

/// One stored run: the query fields, filled from its segment and its
/// decoded blob, plus the full encoded RunOutput blob
/// (sweep::encodeRunOutput), which holds every counter for when a
/// consumer wants the rest.
struct StoreRun {
  std::uint32_t segment = 0;  ///< index into segments()
  std::string workload;
  std::string config;
  std::uint64_t seed = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  double ipc = 0.0;
  double total_pj = 0.0;
  std::vector<std::uint8_t> blob;
};

class ResultStore {
 public:
  /// Read + fully validate a `.mstore` file. Returns false with `err` on
  /// any failure — including a missing file; callers that treat absence as
  /// "start empty" (StoreSink on first write) stat the path themselves so
  /// an EXISTING-but-invalid store can never be silently replaced.
  [[nodiscard]] bool load(const std::string& path, std::string& err);

  /// One grid cell handed to appendSegment: its names + result, stored as
  /// sweep::encodeRunOutput(*out) — the same bytes a journal complete
  /// record holds, so a store written by a resumed sweep is byte-identical
  /// to one an in-process run writes.
  struct RunEntry {
    std::string workload;
    std::string config;
    const sim::RunOutput* out = nullptr;
  };

  /// Append one executed grid, cells in matrix order (workload-major). A
  /// fingerprint already present in the store is a hard error — the same
  /// grid twice would double every query row; callers with skip-if-present
  /// semantics (the explorer's resume) probe findSegment() first.
  void appendSegment(const StoreSegment& meta,
                     const std::vector<RunEntry>& runs);

  /// Write the whole store to `path` atomically (StateIO temp + rename).
  [[nodiscard]] bool save(const std::string& path, std::string& err) const;

  [[nodiscard]] const std::vector<StoreSegment>& segments() const {
    return segments_;
  }
  [[nodiscard]] const std::vector<StoreRun>& runs() const { return runs_; }

  /// The segment holding `fingerprint`, or nullptr.
  [[nodiscard]] const StoreSegment* findSegment(
      std::uint64_t fingerprint) const;

  /// Decode run `idx`'s full RunOutput. Returns false with `err` on a
  /// structurally bad blob (load() already rejects those, so this failing
  /// indicates an in-memory logic error — callers abort on it).
  [[nodiscard]] bool decodeRun(std::size_t idx, sim::RunOutput& out,
                               std::string& err) const;

 private:
  std::vector<StoreSegment> segments_;
  std::vector<StoreRun> runs_;
};

}  // namespace malec::store
