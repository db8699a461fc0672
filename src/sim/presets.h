// Configuration presets reproducing the paper's Table I interfaces (plus
// the latency variants of Sec. VI-B and the ablation variants of VI-C/D),
// and a factory turning a preset into a live interface.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/baseline_interface.h"
#include "core/interface_config.h"
#include "core/malec_interface.h"
#include "core/mem_interface.h"
#include "energy/energy_account.h"

namespace malec::sim {

/// Table II system parameters.
[[nodiscard]] core::SystemConfig defaultSystem();

// --- Table I interfaces -----------------------------------------------------
[[nodiscard]] core::InterfaceConfig presetBase1ldst();
[[nodiscard]] core::InterfaceConfig presetBase2ld1st();
[[nodiscard]] core::InterfaceConfig presetMalec();

// --- latency variants (Fig. 4) ----------------------------------------------
[[nodiscard]] core::InterfaceConfig presetBase2ld1st1cycle();
[[nodiscard]] core::InterfaceConfig presetMalec3cycle();

// --- ablation variants (Sec. V, VI-C, VI-D) ---------------------------------
/// MALEC with the WDU (8/16/32 entries) instead of Way Tables.
[[nodiscard]] core::InterfaceConfig presetMalecWdu(std::uint32_t entries);
/// MALEC without any way determination (always conventional accesses).
[[nodiscard]] core::InterfaceConfig presetMalecNoWaydet();
/// MALEC without the last-entry-register feedback (75 % coverage ablation).
[[nodiscard]] core::InterfaceConfig presetMalecNoFeedback();
/// MALEC without same-line load merging (merge-contribution ablation).
[[nodiscard]] core::InterfaceConfig presetMalecNoMerge();
/// The scaled Fig. 2a configuration: up to 4 loads + 2 stores per cycle,
/// 3 carried loads, 4 result buses.
[[nodiscard]] core::InterfaceConfig presetMalec4ld2st();

/// The five configurations plotted in Fig. 4, in the paper's order.
[[nodiscard]] std::vector<core::InterfaceConfig> fig4Configs();

/// Instantiate the matching interface implementation.
[[nodiscard]] std::unique_ptr<core::MemInterface> makeInterface(
    const core::InterfaceConfig& cfg, const core::SystemConfig& sys,
    energy::EnergyAccount& ea);

}  // namespace malec::sim
