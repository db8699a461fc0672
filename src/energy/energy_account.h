// Event-based energy accounting.
//
// Mirrors the paper's methodology (Sec. VI-A): the timing simulator produces
// access statistics; those are combined with per-access energies from the
// mini-CACTI array model plus per-structure leakage powers integrated over
// the run's wall-clock (cycles / clock).
//
// Hot path = integer ids, edge = strings: every simulated access charges one
// or more events per cycle, so counting must not touch strings or tree-based
// containers. defineEvent()/resolveEvent() hand out dense EventId handles;
// counts live in a flat vector indexed by id, and count(EventId) is a
// bounds-checked array increment. Counting takes an EventId only; names
// remain for definition, queries and reporting.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/stats.h"
#include "common/types.h"

namespace malec::ckpt {
class StateReader;
class StateWriter;
}  // namespace malec::ckpt

namespace malec::energy {

/// Accumulates (event -> count) and (structure -> leakage) and produces an
/// energy report. Event names are conventionally "structure.operation", e.g.
/// "l1.tag_read", "utlb.search", "wt.write".
class EnergyAccount {
 public:
  /// Dense handle for one event type; valid for the account's lifetime.
  using EventId = std::uint32_t;

  /// Register an event type with its per-occurrence energy and return its
  /// handle. Re-defining an event overwrites its energy but keeps its id and
  /// count (used when sweeping technologies).
  EventId defineEvent(const std::string& name, double pj_per_event);

  /// Resolve a name to its handle for construction-time caching, defining
  /// the event with 0 pJ if it does not exist yet. Components call this once
  /// in their constructors; the energy tables (defineEnergies) may attach
  /// the real per-event energies before or after.
  EventId resolveEvent(const std::string& name);

  /// Register a structure's static leakage power.
  void defineLeakage(const std::string& structure, double mw);

  /// Record `n` occurrences of event `id` — the per-access hot path.
  void count(EventId id, std::uint64_t n = 1) {
    MALEC_CHECK(id < events_.size());
    events_[id].count += n;
  }

  [[nodiscard]] std::uint64_t eventCount(const std::string& name) const;
  [[nodiscard]] double eventEnergyPj(const std::string& name) const;
  [[nodiscard]] bool hasEvent(const std::string& name) const;

  [[nodiscard]] std::uint64_t eventCount(EventId id) const {
    MALEC_CHECK(id < events_.size());
    return events_[id].count;
  }
  [[nodiscard]] double eventEnergyPj(EventId id) const {
    MALEC_CHECK(id < events_.size());
    return events_[id].pj;
  }
  /// Number of defined events (== one past the largest valid EventId).
  [[nodiscard]] std::size_t eventTypes() const { return events_.size(); }

  /// Total dynamic energy in pJ.
  [[nodiscard]] double dynamicPj() const;

  /// Total leakage energy in pJ over `cycles` at `clock_ghz`.
  [[nodiscard]] double leakagePj(Cycle cycles, double clock_ghz) const;

  /// Total (dynamic + leakage) energy in pJ.
  [[nodiscard]] double totalPj(Cycle cycles, double clock_ghz) const;

  /// Total leakage power in mW.
  [[nodiscard]] double leakageMw() const;

  /// Dynamic energy contributed by events whose name starts with `prefix`.
  [[nodiscard]] double dynamicPjFor(const std::string& prefix) const;

  /// Leakage power of structures whose name starts with `prefix`.
  [[nodiscard]] double leakageMwFor(const std::string& prefix) const;

  /// Flatten into a StatSet: per-event counts and energies, per-structure
  /// leakage, dynamic/leakage/total rollups.
  [[nodiscard]] StatSet report(Cycle cycles, double clock_ghz) const;

  /// Reset counts (keeps event/leakage definitions and ids).
  void clearCounts();

  /// Checkpoint/restore of the dynamic counters. The event
  /// inventory itself is NOT stored — it is reconstructed by running the
  /// same defineEnergies/constructor sequence — but a hash of the (name,
  /// id) mapping is, so a checkpoint restored into an account with a
  /// different event space aborts instead of mis-crediting counts.
  void saveState(ckpt::StateWriter& w) const;
  void loadState(ckpt::StateReader& r);

 private:
  struct Event {
    double pj = 0.0;
    std::uint64_t count = 0;
  };
  /// Flat storage indexed by EventId — the only state the hot path touches.
  std::vector<Event> events_;
  /// Name -> id, ordered so that reports and prefix rollups iterate in the
  /// same (sorted) order as the original map-based implementation.
  std::map<std::string, EventId> index_;
  /// Definitions, not run state: reconstructed by re-running the same
  /// defineEnergies sequence; the event-space hash guards mismatches.
  std::map<std::string, double> leakage_mw_;  // lint:no-state(definitions; guarded by event-space hash)
};

}  // namespace malec::energy
