// Configuration of an L1 data-memory interface (Table I) and of the
// surrounding system (Table II).
#pragma once

#include <cstdint>
#include <string>

#include "common/address.h"
#include "common/types.h"

namespace malec::core {

/// Way-determination scheme attached to a MALEC pipeline.
enum class WayDetKind {
  kNone,       ///< always conventional accesses
  kWayTables,  ///< Page-Based Way Determination (WT + uWT, Sec. V)
  kWdu,        ///< Nicolaescu-style WDU, validity-extended (Sec. VI-C)
};

/// One of the paper's interface organisations.
enum class InterfaceKind {
  kBase1LdSt,   ///< 1 load OR store per cycle, fully single-ported
  kBase2Ld1St,  ///< 2 loads + 1 store via physical multi-porting + banking
  kMalec,       ///< Page-Based Access Grouping (+ optional way determination)
};

/// The defaults are MALEC's Table I row: sim::presetMalec() returns them
/// unchanged.
/// NOTE: every field below feeds sim::runBindingHash() (checkpoint
/// binding, src/sim/experiment.cpp) — a new knob MUST be added there too,
/// or checkpoints taken under different values of it would silently
/// resume each other.
struct InterfaceConfig {
  std::string name = "MALEC";
  InterfaceKind kind = InterfaceKind::kMalec;

  /// L1 hit latency in cycles (2 in Table II; 1-/3-cycle variants in VI-B).
  Cycle l1_latency = 2;

  // --- address-computation units per cycle (Table I) ----------------------
  std::uint32_t agu_load_only = 1;   ///< MALEC: 1 ld
  std::uint32_t agu_load_store = 2;  ///< MALEC: 2 ld/st
  std::uint32_t agu_store_only = 0;

  // --- MALEC pipeline parameters (Sec. IV) ---------------------------------
  /// Loads from previous cycles the Input Buffer can carry (evaluated
  /// configuration: storage for up to two loads, Sec. VI-A).
  std::uint32_t ib_carry_slots = 2;
  /// Page-ID comparators: how many non-head entries can join the head's
  /// group in one cycle (evaluated configuration: five 20-bit comparators).
  std::uint32_t ib_group_comparators = 5;
  /// Result buses available for load data per cycle (MALEC: 2, the same
  /// LQ write bandwidth as Base2ld1st's two loads).
  std::uint32_t result_buses = 2;
  /// Loads consecutive to the winner examined for merging onto its data
  /// read when they hit the same line / sub-block pair (Sec. IV; paper: 3,
  /// costing < 0.5 % performance vs unlimited). 0 disables merging.
  std::uint32_t merge_window = 3;
  /// Sub-blocked data arrays return two adjacent 128-bit sub-blocks per
  /// read, doubling merge opportunities (Sec. IV).
  bool subblocked_pair_read = true;

  // --- way determination ----------------------------------------------------
  WayDetKind waydet = WayDetKind::kWayTables;
  std::uint32_t wdu_entries = 16;  ///< for WayDetKind::kWdu (8/16/32 sweep)
  /// Last-entry-register feedback of conventional hits into the uWT
  /// (raises coverage from 75 % to 94 %, Sec. V).
  bool last_entry_feedback = true;

  [[nodiscard]] std::uint32_t aguTotal() const {
    return agu_load_only + agu_load_store + agu_store_only;
  }
  /// Physical read ports beyond the baseline rw port (Table I): Base2ld1st
  /// adds one to each L1 bank and two to the uTLB/TLB; every other
  /// organisation is single-ported.
  [[nodiscard]] std::uint32_t l1ExtraRdPorts() const {
    return kind == InterfaceKind::kBase2Ld1St ? 1 : 0;
  }
  [[nodiscard]] std::uint32_t tlbExtraRdPorts() const {
    return kind == InterfaceKind::kBase2Ld1St ? 2 : 0;
  }
};

/// System-level parameters (Table II).
/// NOTE: every field feeds sim::runBindingHash() (checkpoint binding) —
/// a new parameter MUST be added there too.
struct SystemConfig {
  AddressLayout layout{};
  std::uint32_t rob_entries = 168;
  std::uint32_t fetch_width = 6;
  std::uint32_t issue_width = 8;
  std::uint32_t commit_width = 6;
  std::uint32_t lq_entries = 40;
  std::uint32_t sb_entries = 24;
  std::uint32_t mb_entries = 4;
  std::uint32_t utlb_entries = 16;
  std::uint32_t tlb_entries = 64;
  Cycle l2_latency = 12;
  Cycle dram_latency = 54;
  Cycle page_walk_latency = 30;
  /// Outstanding distinct line misses. Not enforced yet: the L1 back end's
  /// pending-fill table has no limit (docs/PAPER_MAPPING.md, "Known
  /// fidelity gaps").
  std::uint32_t mshrs = 8;
  double clock_ghz = 1.0;
  std::uint64_t seed = 1;
};

}  // namespace malec::core
