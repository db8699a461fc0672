#include "sim/suite.h"

#include <algorithm>

#include "common/binio.h"
#include "phase/sample_plan.h"

namespace malec::sim {

// Implemented in specs.cpp: registers every builtin spec exactly once.
void registerBuiltinSpecs(Registry<ExperimentSpec>& reg);

Registry<ExperimentSpec>& specRegistry() {
  static Registry<ExperimentSpec>* r = [] {
    auto* reg = new Registry<ExperimentSpec>("spec");
    registerBuiltinSpecs(*reg);
    return reg;
  }();
  return *r;
}

void SuiteContext::emitTable(const Table& t, const std::string& name,
                             int precision) {
  for (ResultSink* s : sinks) s->table(t, name, precision);
}

void SuiteContext::emitText(const std::string& text) {
  for (ResultSink* s : sinks) s->note(text);
}

void SuiteContext::progressDots() const {
  if (!opts.progress) return;
  for (std::size_t w = 0; w < workloads.size(); ++w) std::fputc('.', stderr);
  std::fputc('\n', stderr);
}

namespace {

constexpr const char* kTraceSelector = "trace:*";
constexpr const char* kSampledSelector = "trace:*:sampled";

bool isTraceName(const std::string& n) { return n.rfind("trace:", 0) == 0; }
bool isSampledName(const std::string& n) { return !fullReplayName(n).empty(); }

bool listsSelector(const ExperimentSpec& spec, const char* selector) {
  return std::find(spec.workloads.begin(), spec.workloads.end(), selector) !=
         spec.workloads.end();
}

bool keptByFilter(const SuiteOptions& opts, const std::string& n) {
  return n.find(opts.workload_filter) != std::string::npos;
}

}  // namespace

std::vector<std::string> suiteWorkloadNames(const ExperimentSpec& spec) {
  const auto& reg = workloadRegistry();
  // "trace:*" in a spec's workload list expands to every registered
  // trace-replay workload (the MALEC_TRACE_DIR scan plus anything added at
  // startup) — how the trace_replay suite picks up a directory of captures.
  // An empty spec workload list means "the paper's benchmark set", NOT
  // "everything registered": MALEC_TRACE_DIR captures must never leak
  // extra rows (and shifted geomeans) into fig4a & friends — trace
  // workloads run only where a spec asks for them by name or selector.
  std::vector<std::string> base;
  if (spec.workloads.empty()) {
    for (const auto& n : reg.names())
      if (!reg.get(n).isTrace()) base.push_back(n);
  } else {
    base = spec.workloads;
  }
  std::vector<std::string> names;
  for (const auto& name : base) {
    if (name == kTraceSelector) {
      // Plain replays only: the scan also registers "trace:<stem>:sampled"
      // variants, and those must not leak extra rows into trace_replay —
      // sampled workloads run where a spec selects them.
      for (const auto& n : reg.names())
        if (isTraceName(n) && !reg.get(n).isSampled()) names.push_back(n);
    } else if (name == kSampledSelector) {
      // Each sampled replay right after the capture it estimates, so a
      // table can hold every sampled row against its full replay.
      for (const auto& n : reg.names()) {
        if (!reg.get(n).isSampled()) continue;
        names.push_back(fullReplayName(n));
        names.push_back(n);
      }
    } else {
      names.push_back(name);
    }
  }
  return names;
}

namespace {

/// Abort when a trace selector of `spec` expanded to nothing, naming what
/// to fix: with no capture registered, MALEC_TRACE_DIR; with captures but
/// no sampled replay, each capture and the reason its plan does not bind.
void checkTraceSelectors(const ExperimentSpec& spec,
                         const std::vector<std::string>& names) {
  const bool sampled = listsSelector(spec, kSampledSelector);
  if (!sampled && !listsSelector(spec, kTraceSelector)) return;
  if (std::any_of(names.begin(), names.end(),
                  sampled ? isSampledName : isTraceName))
    return;
  const auto& reg = workloadRegistry();
  std::string captures;
  for (const auto& n : reg.names()) {
    const trace::WorkloadProfile& wl = reg.get(n);
    if (!wl.isTrace()) continue;
    // The one binding decision: the scan registered no sampled variant
    // for a capture because this call refused its plan.
    phase::SamplePlan plan;
    std::string why;
    (void)phase::loadBoundPlan(phase::planSidecarPath(wl.trace_path),
                               wl.trace_path, plan, why);
    captures += "\n  " + n + ": " + why;
  }
  std::string msg;
  if (captures.empty()) {
    msg = "suite '" + spec.name + "' wants trace workloads ('" +
          (sampled ? kSampledSelector : kTraceSelector) +
          "') but none are registered — point MALEC_TRACE_DIR at a "
          "directory of *.mtrace captures or list trace:<path> workloads "
          "explicitly";
  } else {
    msg = "suite '" + spec.name + "' wants sampled replays ('" +
          kSampledSelector +
          "') but no registered capture has a usable .mplan sidecar — run "
          "`trace_tools phases <capture>`:" +
          captures;
  }
  MALEC_CHECK_MSG(false, msg.c_str());
}

std::vector<trace::WorkloadProfile> resolveWorkloads(
    const ExperimentSpec& spec, const SuiteOptions& opts) {
  const std::vector<std::string> names = suiteWorkloadNames(spec);
  checkTraceSelectors(spec, names);
  std::vector<trace::WorkloadProfile> wls;
  for (const auto& name : names) {
    if (!keptByFilter(opts, name)) continue;
    // A sampled row is read against its full replay: a filter must not
    // split the pair.
    if (const std::string full = fullReplayName(name);
        !full.empty() && !keptByFilter(opts, full) &&
        std::find(names.begin(), names.end(), full) != names.end()) {
      const std::string msg = "workload filter '" + opts.workload_filter +
                              "' keeps '" + name + "' but drops '" + full +
                              "', the full replay it estimates";
      MALEC_CHECK_MSG(false, msg.c_str());
    }
    trace::WorkloadProfile wl = resolveWorkload(name);
    // Sampled workloads carry a plan path that would otherwise only be
    // opened mid-sweep — validate it now (the sampled counterpart of the
    // trace-header probing traceWorkload does), so a missing, corrupt or
    // stale sidecar fails before ANY simulation starts instead of after
    // other rows already ran.
    if (wl.isSampled()) validateSampledWorkload(wl);
    wls.push_back(std::move(wl));
  }
  return wls;
}

/// Build one TableSpec over the grid results, reproducing the legacy row /
/// geomean structure (per-suite boundaries in workload order, optional
/// overall geomean) bit-for-bit.
Table buildTable(const TableSpec& ts, const SuiteContext& ctx) {
  std::vector<std::string> cols = ts.columns;
  if (cols.empty())
    for (const auto& c : ctx.configs) cols.push_back(c.name);
  Table t(ts.title, cols);

  std::string current_suite;
  for (std::size_t w = 0; w < ctx.workloads.size(); ++w) {
    const auto& wl = ctx.workloads[w];
    if (ts.suite_geomeans && !current_suite.empty() &&
        wl.suite != current_suite)
      t.addGeomeanRow("geo.mean " + current_suite);
    current_suite = wl.suite;
    t.addRow(wl.name, ts.row(ctx, w));
  }
  if (ts.suite_geomeans && !current_suite.empty())
    t.addGeomeanRow("geo.mean " + current_suite);
  if (ts.overall_geomean) t.addOverallGeomeanRow(ts.overall_label);
  return t;
}

}  // namespace

std::string allSkipReason(const ExperimentSpec& spec,
                          const SuiteOptions& opts) {
  std::vector<std::string> names;
  for (const auto& n : suiteWorkloadNames(spec))
    if (keptByFilter(opts, n)) names.push_back(n);
  if (names.empty()) {
    std::string why = opts.workload_filter.empty()
                          ? std::string("its workload selector matches "
                                        "nothing registered")
                          : "workload filter '" + opts.workload_filter +
                                "' matches none of its workloads";
    if (listsSelector(spec, kSampledSelector))
      why += " — set MALEC_TRACE_DIR to captures with `trace_tools phases` "
             "plans to include it";
    else if (listsSelector(spec, kTraceSelector))
      why += " — set MALEC_TRACE_DIR to include it";
    return why;
  }
  if (opts.instructions > 0 &&
      std::any_of(names.begin(), names.end(), isSampledName))
    return "replays whole traces/plans — --instr does not compose with it";
  return "";
}

void resolveSuiteContext(SuiteContext& ctx) {
  const ExperimentSpec& spec = ctx.spec;
  const SuiteOptions& opts = ctx.opts;
  ctx.workloads = resolveWorkloads(spec, opts);
  if (!opts.workload_filter.empty() && ctx.workloads.empty()) {
    // An exit-0 run with an empty table and all-zero geomeans would look
    // like a successful result to scripted sink consumers.
    const std::string msg = "workload filter '" + opts.workload_filter +
                            "' matches no workload of suite '" + spec.name +
                            "'";
    MALEC_CHECK_MSG(false, msg.c_str());
  }
  if (std::any_of(ctx.workloads.begin(), ctx.workloads.end(),
                  [](const trace::WorkloadProfile& wl) {
                    return wl.isSampled();
                  })) {
    if (opts.instructions > 0) {
      const std::string msg =
          "suite '" + spec.name +
          "' replays whole traces/plans — an instruction budget does not "
          "compose with it (drop --instr)";
      MALEC_CHECK_MSG(false, msg.c_str());
    }
    ctx.instructions = 0;
  } else {
    ctx.instructions = opts.instructions > 0
                           ? opts.instructions
                           : instructionBudget(spec.default_instructions);
  }
  ctx.seed = opts.seed > 0 ? opts.seed : spec.seed;
  ctx.jobs = opts.jobs > 0 ? opts.jobs : parallelJobs();
  if (spec.configs) ctx.configs = spec.configs();
}

namespace {

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  std::uint8_t b[8];
  binio::put64(b, v);
  return binio::fnv1a(h, b, sizeof b);
}

std::uint64_t fold(std::uint64_t h, const std::string& s) {
  h = binio::fnv1a(h, reinterpret_cast<const std::uint8_t*>(s.data()),
                   s.size());
  // NUL terminator: ("ab","c") must not collide with ("a","bc").
  const std::uint8_t nul = 0;
  return binio::fnv1a(h, &nul, 1);
}

/// FNV-1a over the grid's identity: suite name, resolved budget, seed,
/// ordered workload names, ordered config names. Workload names are
/// post-filter, so a different --filter is a different grid.
std::uint64_t gridFingerprint(const SuiteContext& ctx) {
  std::uint64_t h = binio::kFnvOffset;
  h = fold(h, ctx.spec.name);
  h = fold(h, ctx.instructions);
  h = fold(h, ctx.seed);
  h = fold(h, static_cast<std::uint64_t>(ctx.workloads.size()));
  for (const auto& wl : ctx.workloads) h = fold(h, wl.name);
  h = fold(h, static_cast<std::uint64_t>(ctx.configs.size()));
  for (const auto& cfg : ctx.configs) h = fold(h, cfg.name);
  return h;
}

}  // namespace

SuiteInfo suiteInfo(const SuiteContext& ctx) {
  SuiteInfo info;
  info.name = ctx.spec.name;
  info.title = ctx.spec.title;
  info.instructions = ctx.instructions;
  info.seed = ctx.seed;
  info.jobs = ctx.jobs;
  // Custom suites run their own sweeps — there is no (workload x config)
  // grid to bind a fingerprint to.
  if (ctx.spec.configs) info.fingerprint = gridFingerprint(ctx);
  return info;
}

void emitRunResults(SuiteContext& ctx) {
  for (std::size_t w = 0; w < ctx.results.size(); ++w) {
    for (std::size_t c = 0; c < ctx.results[w].size(); ++c) {
      const RunRecord rec{ctx.workloads[w].name, ctx.configs[c].name,
                          ctx.results[w][c]};
      for (ResultSink* s : ctx.sinks) s->runResult(rec);
    }
  }
}

void emitSuiteTables(SuiteContext& ctx) {
  for (const TableSpec& ts : ctx.spec.tables)
    ctx.emitTable(buildTable(ts, ctx), ts.name, ts.precision);
  if (!ctx.spec.paper_anchor.empty()) ctx.emitText(ctx.spec.paper_anchor + "\n");
}

void runSuite(const ExperimentSpec& spec, const SuiteOptions& opts,
              const std::vector<ResultSink*>& sinks) {
  SuiteContext ctx{spec, opts};
  resolveSuiteContext(ctx);
  ctx.sinks = sinks;

  const SuiteInfo info = suiteInfo(ctx);
  for (ResultSink* s : sinks) s->beginSuite(info);

  if (spec.custom) {
    spec.custom(ctx);
    if (!spec.paper_anchor.empty()) ctx.emitText(spec.paper_anchor + "\n");
  } else {
    MALEC_CHECK_MSG(spec.configs != nullptr,
                    "spec without custom body needs a configuration set");
    // The whole grid as one batch: the pool is never capped at one row's
    // configuration count (this is what retired the serial runConfigs
    // stragglers like the old bench_fig4a main).
    ctx.results = runMatrixParallel(ctx.workloads, ctx.configs,
                                    ctx.instructions, ctx.seed, ctx.jobs);
    ctx.progressDots();
    emitRunResults(ctx);
    emitSuiteTables(ctx);
  }

  for (ResultSink* s : sinks) s->endSuite();
}

}  // namespace malec::sim
