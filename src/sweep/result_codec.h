// RunOutput wire codec: the blob format of a `.mstore` run (see
// src/store/result_store.h and docs/FILE_FORMATS.md).
//
// Every field of RunOutput travels — the scalar metrics, every
// InterfaceStats counter (kInterfaceCounterFields keeps the listing
// complete by static_assert), every CoreStats counter, and the full
// energy-report StatSet — because table row rules are arbitrary functions
// over RunOutput: a partial result would silently zero whichever metric
// the next spec reads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.h"

namespace malec::sweep {

/// Serialize `out` into a self-delimiting byte blob.
[[nodiscard]] std::vector<std::uint8_t> encodeRunOutput(
    const sim::RunOutput& out);

/// What decodeRunOutput keeps of a blob. Both walk and check every byte
/// the same way, so they accept and refuse the same blobs with the same
/// messages.
enum class Decode : std::uint8_t {
  kFull,  ///< every field
  /// Every field but the energy entries, which are bounds-checked and
  /// dropped: ResultStore::load's read of its query columns, which builds
  /// no StatSet.
  kNoEnergyDetail,
};

/// Decode a blob produced by encodeRunOutput. Returns false (with `err`
/// set) on any structural problem — short blob, trailing bytes, bad field
/// counts — without aborting, so ResultStore::load can refuse a store
/// whose blob does not decode.
[[nodiscard]] bool decodeRunOutput(const std::uint8_t* p, std::size_t n,
                                   sim::RunOutput& out, std::string& err,
                                   Decode what = Decode::kFull);

}  // namespace malec::sweep
