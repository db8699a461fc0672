// Bit-identity comparison of simulation results.
//
// describeOutput() renders a RunOutput as text, one field per line: every
// RunOutput scalar, every interface and core counter, and the byte-exact
// energy report table — what "bit-identical" means throughout
// (docs/ARCHITECTURE.md, "Checkpoint determinism"). That rendering is the
// one field list: diffOutputs() is a line diff of two renderings, and the
// committed run goldens (tests/golden/runs/, checked by
// tests/test_golden_runs.cpp) are renderings too.
#pragma once

#include <string>

#include "sim/experiment.h"

namespace malec::sim {

/// Render `out` one field per line as "name: value": identity fields,
/// timing, the derived doubles (printed with %.17g, which round-trips
/// their bits), every InterfaceStats and CoreStats counter (by index in
/// kInterfaceCounterFields / kCoreScaledCounterFields), then one
/// "energy: <row>" line per StatSet::toTable() row.
[[nodiscard]] std::string describeOutput(const RunOutput& out);

/// Line diff (longest common subsequence) of two texts: "" when equal,
/// otherwise every line only `a` has prefixed "- " and every line only `b`
/// has prefixed "+ ", in order.
[[nodiscard]] std::string diffLines(const std::string& a, const std::string& b);

/// Compare two RunOutputs exhaustively: diffLines() of their
/// describeOutput() renderings. Doubles compare bit-exactly, not within a
/// tolerance, and a mismatch names the field or energy row that moved,
/// with both values.
[[nodiscard]] std::string diffOutputs(const RunOutput& a, const RunOutput& b);

}  // namespace malec::sim
