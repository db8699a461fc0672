// RunOutput wire codec + the worker result file (`.mres`).
//
// A sweep worker hands its RunOutput back to the coordinator as a file:
// a `.mckpt`-style StateIO container (atomic temp+rename write, payload
// checksum, strict validation at open — see src/ckpt/state_io.h) holding a
// "binding" section that pins the result to one (grid fingerprint, task,
// attempt) and a "run_output" section with the encoded RunOutput blob. The
// same blob encoding is embedded verbatim in the journal's completion
// records, so a resumed coordinator rebuilds results without re-reading
// any worker file.
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
/// counts — without aborting: the coordinator treats a bad result file as
/// a retryable worker failure, not a crash.
[[nodiscard]] bool decodeRunOutput(const std::uint8_t* p, std::size_t n,
                                   sim::RunOutput& out, std::string& err,
                                   Decode what = Decode::kFull);

/// Write a worker result file: binding + blob, atomically. Aborts on I/O
/// failure (the worker has nothing useful to do but die loudly — the
/// coordinator will journal the failure and retry).
void writeResultFile(const std::string& path, std::uint64_t fingerprint,
                     std::uint32_t task, std::uint32_t attempt,
                     const sim::RunOutput& out);

/// Read + validate a worker result file against the expected binding.
/// Returns false with `err` on ANY mismatch or corruption — including a
/// checksum failure from a worker killed mid-write or a fault-injected
/// `corrupt-result` — so the coordinator's retry path owns the decision.
[[nodiscard]] bool readResultFile(const std::string& path,
                                  std::uint64_t fingerprint,
                                  std::uint32_t task, std::uint32_t attempt,
                                  sim::RunOutput& out,
                                  std::vector<std::uint8_t>& blob,
                                  std::string& err);

}  // namespace malec::sweep
