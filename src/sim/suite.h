// The declarative experiment-suite layer: an ExperimentSpec describes one
// paper figure/table reproduction — which workloads, which interface
// configurations, which metric columns, how rows are normalised and which
// paper numbers anchor the result — and runSuite() executes the whole
// (workload x configuration) grid as ONE runMatrixParallel batch, emitting
// the results through pluggable ResultSinks.
//
// Every paper figure and table is a ~20-line spec registration in
// specs.cpp; `malec_bench --suite <name>` drives any registered spec.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/registry.h"
#include "sim/sinks.h"

namespace malec::sim {

struct ExperimentSpec;

/// Per-invocation overrides (CLI flags / tests). Zero / empty = use the
/// spec's defaults and the MALEC_INSTR / MALEC_JOBS environment knobs.
struct SuiteOptions {
  std::uint64_t instructions = 0;  ///< 0 => instructionBudget(spec default)
  std::uint64_t seed = 0;          ///< 0 => spec.seed
  unsigned jobs = 0;               ///< 0 => parallelJobs()
  std::string workload_filter;     ///< substring filter on workload names
  bool progress = true;            ///< stderr progress dots
};

/// Execution state handed to row builders and custom suite bodies; also the
/// emission façade over the attached sinks.
struct SuiteContext {
  SuiteContext(const ExperimentSpec& s, const SuiteOptions& o)
      : spec(s), opts(o) {}

  const ExperimentSpec& spec;
  const SuiteOptions& opts;
  std::uint64_t instructions = 0;  ///< resolved budget for this run
  std::uint64_t seed = 1;          ///< resolved seed
  unsigned jobs = 0;               ///< resolved worker count
  std::vector<trace::WorkloadProfile> workloads;  ///< resolved + filtered
  std::vector<core::InterfaceConfig> configs;     ///< resolved
  /// Matrix results indexed [workload][config]; filled before table
  /// building for matrix specs, empty for custom suites (which run their
  /// own sweeps).
  std::vector<std::vector<RunOutput>> results;

  void emitTable(const Table& t, const std::string& name, int precision = 1);
  void emitText(const std::string& text);
  /// One stderr dot per workload (suppressed by opts.progress = false),
  /// shared by the matrix path and the custom bodies that run their own
  /// sweeps.
  void progressDots() const;

  std::vector<ResultSink*> sinks;  ///< non-owning
};

/// One output table of a spec: a title, columns (empty = the configuration
/// names) and a row rule mapping one workload's RunOutputs to column values
/// — the normalisation lives here.
struct TableSpec {
  std::string name;   ///< stable identifier (CSV stem / JSON key)
  std::string title;
  std::vector<std::string> columns;
  std::function<std::vector<double>(const SuiteContext&, std::size_t wl_idx)>
      row;
  /// Insert per-suite geometric-mean rows ("geo.mean SPEC-INT", ...) at
  /// suite boundaries, the way Fig. 4 is plotted.
  bool suite_geomeans = false;
  /// Append an overall geometric-mean row labelled `overall_label`.
  bool overall_geomean = false;
  std::string overall_label = "geo.mean";
  int precision = 1;  ///< decimal places for the rendered form
};

/// The declarative unit: everything `malec_bench --suite <name>` needs.
struct ExperimentSpec {
  std::string name;         ///< registry key, e.g. "fig4a"
  std::string title;        ///< one-line description for --list
  std::string paper_anchor; ///< trailing note with the paper's numbers
  /// Workload names (resolved through workloadRegistry()); empty = all.
  std::vector<std::string> workloads;
  /// Configuration set factory; null for custom suites without a grid.
  std::function<std::vector<core::InterfaceConfig>()> configs;
  std::uint64_t default_instructions = 100'000;
  std::uint64_t seed = 1;
  std::vector<TableSpec> tables;
  /// Escape hatch for suites that are not a plain (workload x config)
  /// grid (Fig. 1 locality analysis, the Table I/II methodology dump, the
  /// way-encoding study): when set, runSuite() resolves options and
  /// workloads, then hands control to this body instead of the matrix +
  /// tables path.
  std::function<void(SuiteContext&)> custom;
};

/// All registered experiment specs. First use registers the builtin specs
/// (specs.cpp), one per paper figure and table.
[[nodiscard]] Registry<ExperimentSpec>& specRegistry();

/// The workload names `spec` resolves to BEFORE --filter is applied: an
/// empty spec list expands to the paper set, "trace:*" to every
/// registered plain trace workload and "trace:*:sampled" to every
/// registered "trace:<stem>:sampled", each preceded by its capture
/// "trace:<stem>". Either selector may expand to nothing here —
/// resolveSuiteContext aborts on that with a MALEC_TRACE_DIR (or, for
/// the sampled selector, a per-capture plan) diagnostic, and
/// `malec_bench --all` skips the suite with a note instead.
[[nodiscard]] std::vector<std::string> suiteWorkloadNames(
    const ExperimentSpec& spec);

/// Why `malec_bench --all` skips `spec` under `opts` ("" = run it): no
/// workload is left after --filter (the note names MALEC_TRACE_DIR for a
/// trace selector, and `trace_tools phases` for the sampled one), or a
/// sampled workload meets an explicit --instr. resolveSuiteContext would
/// abort on either; an explicit `--suite` still does.
[[nodiscard]] std::string allSkipReason(const ExperimentSpec& spec,
                                        const SuiteOptions& opts);

/// Resolve a SuiteContext's options, workloads and configurations —
/// everything runSuite does BEFORE any simulation, public so a harness can
/// time the grid on its own: budget/seed/jobs fallbacks, workload
/// resolution + filtering (sampled sidecars validated up front), the
/// empty-filter-match hard error and the config-set factory all live here
/// once. A suite whose workloads include a sampled replay streams whole
/// traces and plans: an explicit --instr is refused (a cap does not
/// compose with a sample plan) and MALEC_INSTR resolves to 0, so a
/// job-wide CI budget neither breaks `--all` nor shows up untruthfully in
/// SuiteInfo. A --filter that keeps a sampled replay but drops the full
/// replay it estimates is refused too.
void resolveSuiteContext(SuiteContext& ctx);

/// The SuiteInfo sinks are introduced with, derived from a resolved ctx,
/// including the grid fingerprint a `.mstore` segment is keyed by
/// (SuiteInfo::fingerprint).
[[nodiscard]] SuiteInfo suiteInfo(const SuiteContext& ctx);

/// Announce every grid cell of ctx.results to the attached sinks via
/// runResult(), in matrix order (workload-major) — the emission step that
/// feeds durable sinks. No-op when ctx.results is empty (custom suites).
void emitRunResults(SuiteContext& ctx);

/// Build each TableSpec over ctx.results and emit tables + the paper
/// anchor through ctx.sinks — the emission half of runSuite. Callers
/// bracket this with beginSuite()/endSuite() themselves.
void emitSuiteTables(SuiteContext& ctx);

/// Execute one spec: resolve workloads/configs, run the grid through
/// runMatrixParallel (or the custom body), build each TableSpec with its
/// geomean rows, and emit tables + paper anchor through `sinks`.
void runSuite(const ExperimentSpec& spec, const SuiteOptions& opts,
              const std::vector<ResultSink*>& sinks);

}  // namespace malec::sim
