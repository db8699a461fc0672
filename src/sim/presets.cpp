#include "sim/presets.h"

#include "common/check.h"

namespace malec::sim {

core::SystemConfig defaultSystem() {
  return core::SystemConfig{};  // defaults encode Table II
}

core::InterfaceConfig presetBase1ldst() {
  core::InterfaceConfig c;
  c.name = "Base1ldst";
  c.kind = core::InterfaceKind::kBase1LdSt;
  c.l1_latency = 2;
  c.agu_load_only = 0;
  c.agu_load_store = 1;  // 1 ld/st per cycle
  c.agu_store_only = 0;
  c.waydet = core::WayDetKind::kNone;
  c.subblocked_pair_read = false;  // plain single-sub-block reads
  return c;
}

core::InterfaceConfig presetBase2ld1st() {
  core::InterfaceConfig c;
  c.name = "Base2ld1st";
  c.kind = core::InterfaceKind::kBase2Ld1St;
  c.l1_latency = 2;
  c.agu_load_only = 2;  // 2 ld + 1 st per cycle
  c.agu_load_store = 0;
  c.agu_store_only = 1;
  c.waydet = core::WayDetKind::kNone;
  c.subblocked_pair_read = false;  // plain single-sub-block reads
  return c;
}

core::InterfaceConfig presetMalec() {
  return core::InterfaceConfig{};  // defaults encode MALEC's Table I row
}

core::InterfaceConfig presetBase2ld1st1cycle() {
  core::InterfaceConfig c = presetBase2ld1st();
  c.name = "Base2ld1st_1cycleL1";
  c.l1_latency = 1;
  return c;
}

core::InterfaceConfig presetMalec3cycle() {
  core::InterfaceConfig c = presetMalec();
  c.name = "MALEC_3cycleL1";
  c.l1_latency = 3;
  return c;
}

core::InterfaceConfig presetMalecWdu(std::uint32_t entries) {
  core::InterfaceConfig c = presetMalec();
  c.name = "MALEC_WDU" + std::to_string(entries);
  c.waydet = core::WayDetKind::kWdu;
  c.wdu_entries = entries;
  return c;
}

core::InterfaceConfig presetMalecNoWaydet() {
  core::InterfaceConfig c = presetMalec();
  c.name = "MALEC_noWayDet";
  c.waydet = core::WayDetKind::kNone;
  return c;
}

core::InterfaceConfig presetMalecNoFeedback() {
  core::InterfaceConfig c = presetMalec();
  c.name = "MALEC_noFeedback";
  c.last_entry_feedback = false;
  return c;
}

core::InterfaceConfig presetMalecNoMerge() {
  core::InterfaceConfig c = presetMalec();
  c.name = "MALEC_noMerge";
  c.merge_window = 0;
  return c;
}

core::InterfaceConfig presetMalec4ld2st() {
  core::InterfaceConfig c = presetMalec();
  c.name = "MALEC_4ld2st";
  c.agu_load_only = 4;  // Fig. 2a: 4 loads + 2 stores in parallel
  c.agu_load_store = 0;
  c.agu_store_only = 2;
  c.ib_carry_slots = 3;        // "up to three loads from previous cycles"
  c.ib_group_comparators = 7;  // 3 carried + 4 new - head + 1 MBE
  c.result_buses = 4;          // Fig. 2a result busses 0..3
  return c;
}

std::vector<core::InterfaceConfig> fig4Configs() {
  return {presetBase1ldst(), presetBase2ld1st1cycle(), presetBase2ld1st(),
          presetMalec(), presetMalec3cycle()};
}

std::unique_ptr<core::MemInterface> makeInterface(
    const core::InterfaceConfig& cfg, const core::SystemConfig& sys,
    energy::EnergyAccount& ea) {
  switch (cfg.kind) {
    case core::InterfaceKind::kMalec:
      return std::make_unique<core::MalecInterface>(cfg, sys, ea);
    case core::InterfaceKind::kBase1LdSt:
    case core::InterfaceKind::kBase2Ld1St:
      return std::make_unique<core::BaselineInterface>(cfg, sys, ea);
  }
  MALEC_CHECK(false);
  return nullptr;
}

}  // namespace malec::sim
