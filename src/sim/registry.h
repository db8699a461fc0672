// Name-keyed registries behind the declarative experiment layer: one for
// workload profiles, one for interface-configuration presets and one for
// experiment specs. A registry remembers registration order (it drives
// `malec_bench --list` and table row order) and fails lookups with a
// message that names the registry and enumerates what IS registered —
// "unknown workload 'gc'" should never need a debugger.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/interface_config.h"
#include "phase/sample_plan.h"
#include "trace/workload_profile.h"

namespace malec::sim {

template <typename T>
class Registry {
 public:
  /// `kind` names the registry in error messages ("workload", "preset", ...).
  explicit Registry(std::string kind) : kind_(std::move(kind)) {}

  /// Register under `name`; duplicate names abort (specs must not shadow
  /// each other silently).
  void add(const std::string& name, T value) {
    if (map_.count(name) != 0) {
      const std::string msg = "duplicate " + kind_ + " '" + name + "'";
      MALEC_CHECK_MSG(false, msg.c_str());
    }
    order_.push_back(name);
    map_.emplace(name, std::move(value));
  }

  /// Lookup; unknown names abort with the known-name inventory.
  [[nodiscard]] const T& get(const std::string& name) const {
    const T* p = tryGet(name);
    if (p == nullptr) {
      std::string msg = "unknown " + kind_ + " '" + name + "' — known " +
                        kind_ + "s:";
      for (const auto& n : order_) msg += " " + n;
      MALEC_CHECK_MSG(false, msg.c_str());
    }
    return *p;
  }

  /// Lookup without aborting; nullptr when absent (for CLI-friendly errors).
  [[nodiscard]] const T* tryGet(const std::string& name) const {
    const auto it = map_.find(name);
    return it == map_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] bool has(const std::string& name) const {
    return map_.count(name) != 0;
  }

  /// Registered names in registration order.
  [[nodiscard]] const std::vector<std::string>& names() const {
    return order_;
  }

  [[nodiscard]] std::size_t size() const { return order_.size(); }

 private:
  std::string kind_;
  std::vector<std::string> order_;
  std::map<std::string, T> map_;
};

/// A preset is a factory, not a value: configurations are cheap to build
/// and callers usually tweak the copy they get back.
using PresetFn = std::function<core::InterfaceConfig()>;

/// All workload profiles, pre-populated from trace::allWorkloads() in the
/// paper's plotting order, followed by one trace-replay workload per
/// *.mtrace file found in $MALEC_TRACE_DIR (sorted by filename, registered
/// as "trace:<stem>"). Additional (synthetic / scenario / trace) workloads
/// may be added at startup before any suite runs.
[[nodiscard]] Registry<trace::WorkloadProfile>& workloadRegistry();

/// Build a replay workload for a captured trace file: name "trace:<stem>",
/// suite "trace". The file's header is validated up front — a missing,
/// truncated or corrupt trace aborts here with the reader's message rather
/// than deep inside a sweep. Does not register the profile.
[[nodiscard]] trace::WorkloadProfile traceWorkload(const std::string& path);

/// Resolve a workload name: registry hit first; otherwise a "trace:<path>"
/// name is treated as a trace file path and built on the fly — with an
/// optional ":sampled" suffix selecting phase-sampled replay through the
/// trace's `.mplan` sidecar (loaded up front by sampledWorkload); anything
/// else aborts with the registry inventory.
[[nodiscard]] trace::WorkloadProfile resolveWorkload(const std::string& name);

/// Register every *.mtrace in `dir` (sorted by filename) as a trace-replay
/// workload — the MALEC_TRACE_DIR scan, callable directly for additional
/// directories. Aborts on an unscannable directory, an invalid trace file
/// or a name collision.
void registerTraceWorkloadsFrom(const std::string& dir);

/// Phase-sampled variant of a trace workload: a copy of `wl` with
/// sample_plan_path attached (empty `plan_path` = the conventional .mplan
/// sidecar next to the trace, see phase::planSidecarPath) and the name
/// suffixed ":sampled". The plan is loaded through sampledPlan() up front,
/// so a missing, corrupt or foreign plan aborts here rather than deep
/// inside a sweep. This helper owns the sidecar/naming convention — never
/// hand-build sampled profiles elsewhere.
[[nodiscard]] trace::WorkloadProfile sampledWorkload(
    const trace::WorkloadProfile& wl, const std::string& plan_path = "");

/// The plan a sampled trace workload replays: its sample_plan_path loaded
/// and bound to its trace by phase::loadBoundPlan. Aborts, with a hint to
/// write the plan with `trace_tools phases`, when the plan is missing,
/// corrupt or computed from another trace. The run layer loads plans only
/// through here: sampledWorkload, suite materialization (before any
/// simulation starts), runOne's window walk and phase_sampled's cost row.
/// The trace-directory scan and the no-usable-plan diagnostic, which must
/// not abort, ask phase::loadBoundPlan itself.
[[nodiscard]] phase::SamplePlan sampledPlan(const trace::WorkloadProfile& wl);

/// The name of the full replay a sampled workload name estimates
/// ("trace:gcc:sampled" -> "trace:gcc"); empty when `name` selects no
/// sampled replay. The bare "trace:sampled" is the trace file "sampled".
[[nodiscard]] std::string fullReplayName(const std::string& name);

/// All interface-configuration presets of presets.h, keyed by the
/// configuration name they produce (e.g. "MALEC", "MALEC_WDU16").
[[nodiscard]] Registry<PresetFn>& presetRegistry();

}  // namespace malec::sim
