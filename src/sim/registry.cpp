#include "sim/registry.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>

#include "phase/sample_plan.h"
#include "sim/presets.h"
#include "trace/trace_io.h"
#include "trace/workloads.h"

namespace malec::sim {

namespace {

constexpr const char* kTraceScheme = "trace:";
constexpr const char* kTraceExt = ".mtrace";
constexpr const char* kSampledSuffix = ":sampled";

/// "traces/gcc.mtrace" -> "gcc".
std::string traceStem(const std::string& path) {
  return std::filesystem::path(path).stem().string();
}

[[nodiscard]] bool endsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// One trace-replay workload per *.mtrace in `dir`, sorted by filename so
/// the registration (and table-row) order is stable across platforms. A
/// trace with a VALID `.mplan` sidecar additionally registers its
/// phase-sampled variant ("trace:<stem>:sampled"); a missing or unusable
/// sidecar just skips the variant — a suite that selects sampled replays
/// and finds none names each capture's reason (see resolveSuiteContext).
void registerTraceDir(Registry<trace::WorkloadProfile>& reg,
                      const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    const std::string msg =
        "MALEC_TRACE_DIR='" + dir + "' cannot be scanned: " + ec.message();
    MALEC_CHECK_MSG(false, msg.c_str());
  }
  std::vector<std::string> paths;
  for (const auto& entry : it)
    if (entry.is_regular_file() && entry.path().extension() == kTraceExt)
      paths.push_back(entry.path().string());
  std::sort(paths.begin(), paths.end());
  for (const auto& p : paths) {
    const auto wl = traceWorkload(p);
    reg.add(wl.name, wl);
    phase::SamplePlan plan;
    std::string err;
    if (!phase::loadBoundPlan(phase::planSidecarPath(p), p, plan, err))
      continue;
    const auto sampled = sampledWorkload(wl);
    reg.add(sampled.name, sampled);
  }
}

}  // namespace

Registry<trace::WorkloadProfile>& workloadRegistry() {
  static Registry<trace::WorkloadProfile>* r = [] {
    auto* reg = new Registry<trace::WorkloadProfile>("workload");
    for (const auto& wl : trace::allWorkloads()) reg->add(wl.name, wl);
    if (const char* dir = std::getenv("MALEC_TRACE_DIR");
        dir != nullptr && dir[0] != '\0')
      registerTraceDir(*reg, dir);
    return reg;
  }();
  return *r;
}

void registerTraceWorkloadsFrom(const std::string& dir) {
  registerTraceDir(workloadRegistry(), dir);
}

trace::WorkloadProfile traceWorkload(const std::string& path) {
  {
    // Validate the header (magic, version, size-vs-count) now: the sweep
    // machinery should reject a bad trace before any simulation starts.
    trace::TraceReader probe(path);
    if (!probe.ok()) MALEC_CHECK_MSG(false, probe.error().c_str());
  }
  trace::WorkloadProfile wl;
  wl.name = kTraceScheme + traceStem(path);
  wl.suite = "trace";
  wl.trace_path = path;
  return wl;
}

trace::WorkloadProfile sampledWorkload(const trace::WorkloadProfile& wl,
                                       const std::string& plan_path) {
  MALEC_CHECK_MSG(wl.isTrace(),
                  "sampledWorkload() needs a trace-backed workload");
  trace::WorkloadProfile out = wl;
  out.sample_plan_path =
      plan_path.empty() ? phase::planSidecarPath(wl.trace_path) : plan_path;
  out.name = wl.name + kSampledSuffix;
  (void)sampledPlan(out);
  return out;
}

phase::SamplePlan sampledPlan(const trace::WorkloadProfile& wl) {
  MALEC_CHECK_MSG(wl.isTrace() && wl.isSampled(),
                  "sampledPlan() needs a sampled trace workload");
  phase::SamplePlan plan;
  std::string err;
  if (!phase::loadBoundPlan(wl.sample_plan_path, wl.trace_path, plan, err)) {
    err += " — write a plan with `trace_tools phases " + wl.trace_path + "`";
    MALEC_CHECK_MSG(false, err.c_str());
  }
  return plan;
}

std::string fullReplayName(const std::string& name) {
  // The suffix only counts when a non-empty base remains after stripping
  // it: the degenerate name "trace:sampled" means the path "sampled", not
  // a sampled nothing.
  const std::size_t scheme = std::string(kTraceScheme).size();
  const std::size_t suffix = std::string(kSampledSuffix).size();
  if (name.rfind(kTraceScheme, 0) != 0 || !endsWith(name, kSampledSuffix) ||
      name.size() <= scheme + suffix)
    return "";
  return name.substr(0, name.size() - suffix);
}

trace::WorkloadProfile resolveWorkload(const std::string& name) {
  const auto& reg = workloadRegistry();
  if (const trace::WorkloadProfile* p = reg.tryGet(name)) return *p;
  if (name.rfind(kTraceScheme, 0) == 0) {
    // A ":sampled" suffix selects phase-sampled replay of the named trace
    // — it must never be swallowed into the file path (a path ending in
    // ":sampled" is no trace anyone captured).
    if (const std::string base_name = fullReplayName(name);
        !base_name.empty()) {
      // "trace:<stem>:sampled" for a registered stem whose sidecar was
      // missing/stale at scan time: resolve through the registered base so
      // the error names the plan, not a nonexistent file called "<stem>".
      if (const trace::WorkloadProfile* base = reg.tryGet(base_name))
        return sampledWorkload(*base);
      auto wl =
          traceWorkload(base_name.substr(std::string(kTraceScheme).size()));
      wl.name = base_name;  // keep the user-supplied path form (see below)
      // sampledWorkload loads and binds the plan sidecar up front — a
      // missing plan aborts here, with sampledPlan's hint — and appends
      // ":sampled", restoring exactly the name that was asked for.
      return sampledWorkload(wl);
    }
    auto wl = traceWorkload(name.substr(std::string(kTraceScheme).size()));
    // Keep the user-supplied form: two ad-hoc paths with the same stem
    // must stay distinguishable in table rows and sink records, and the
    // emitted name should match what was asked for.
    wl.name = name;
    return wl;
  }
  return reg.get(name);  // aborts with the registry inventory
}

Registry<PresetFn>& presetRegistry() {
  static Registry<PresetFn>* r = [] {
    auto* reg = new Registry<PresetFn>("preset");
    auto add = [&](PresetFn fn) {
      // Sequence the name lookup before the move: argument evaluation
      // order in a single call is unspecified.
      const std::string name = fn().name;
      reg->add(name, std::move(fn));
    };
    // Table I interfaces, then the Fig. 4 latency variants, then the
    // Sec. V / VI-C / VI-D ablation variants.
    add(&presetBase1ldst);
    add(&presetBase2ld1st);
    add(&presetMalec);
    add(&presetBase2ld1st1cycle);
    add(&presetMalec3cycle);
    add([] { return presetMalecWdu(8); });
    add([] { return presetMalecWdu(16); });
    add([] { return presetMalecWdu(32); });
    add(&presetMalecNoWaydet);
    add(&presetMalecNoFeedback);
    add(&presetMalecNoMerge);
    add(&presetMalec4ld2st);
    return reg;
  }();
  return *r;
}

}  // namespace malec::sim
