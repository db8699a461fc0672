// Trace tooling around the public trace API:
//
//   trace_tools gen <benchmark> <N> <file> [--seed S]
//       capture a synthetic stream (v2 format: block-buffered, header
//       carries the AddressLayout and a record checksum)
//   trace_tools analyze <file>
//       Fig.1-style locality report, under the layout the trace was
//       captured with
//   trace_tools run <file> [--config NAME] [--instr N] [--seed S]
//       simulate a captured trace through the shared experiment runner.
//       --ckpt-out PATH --ckpt-every N writes a full-state `.mckpt`
//       checkpoint every N retired instructions; --from-ckpt PATH resumes
//       one — the resumed run's report is bit-identical to the
//       uninterrupted run. --sampled [--plan PATH] replays only the
//       plan's representative intervals (see `phases` below).
//   trace_tools synth <benchmark> [--config NAME] [--instr N] [--seed S]
//       the equivalent direct synthetic run, same report — `diff` its
//       output against `run` on a capture of the same benchmark to verify
//       bit-identical replay (CI does exactly this)
//   trace_tools phases <file> [--interval N] [--phases K] [--warmup W]
//                      [--seed S] [--out PATH]
//       profile the trace into BBV-style intervals, cluster them into
//       phases (deterministic k-means) and write a sample plan — by
//       default the `.mplan` sidecar next to the trace, which `run
//       --sampled` and `malec_bench --suite phase_sampled` pick up
//       (a plan written with --out replays via `run --sampled --plan`)
//
// Captured traces are the bridge to real-simulator integration: any tool
// that writes the (documented) record format in trace_io.h can drive the
// full MALEC stack instead of the synthetic workload models. `run`/`synth`
// are thin wrappers over sim::runOne(), so a trace here behaves exactly
// like a `trace:` workload inside `malec_bench --suite trace_replay`.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "phase/planner.h"
#include "phase/sample_plan.h"
#include "sim/presets.h"
#include "sim/registry.h"
#include "sim/suite.h"
#include "trace/locality_analyzer.h"
#include "trace/trace_io.h"

namespace {

using namespace malec;

struct RunFlags {
  std::string config = "MALEC";
  std::uint64_t instructions = 0;  ///< 0 = whole trace / runner default
  std::uint64_t seed = 1;
  bool sampled = false;  ///< replay through a sample plan
  std::string plan;      ///< explicit plan path ("" = the .mplan sidecar)
  std::string ckpt_out;  ///< write a .mckpt here every ckpt_every instrs
  std::uint64_t ckpt_every = 0;  ///< checkpoint cadence [retired instrs]
  std::string from_ckpt;         ///< resume from this .mckpt
};

/// Parse trailing [--config NAME] [--instr N] [--seed S] [--sampled
/// [--plan PATH]] [--ckpt-out PATH --ckpt-every N] [--from-ckpt PATH]
/// flags. `gen` passes allow_run_flags = false: it only takes --seed, and
/// must reject the rest instead of silently ignoring a --instr/--config
/// the user believes shaped the capture.
bool parseRunFlags(int argc, char** argv, int first, RunFlags& out,
                   bool allow_run_flags = true) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (allow_run_flags && arg == "--config") out.config = value();
    else if (allow_run_flags && arg == "--instr")
      out.instructions = sim::parseU64Strict(value(), "--instr");
    else if (allow_run_flags && arg == "--sampled") out.sampled = true;
    else if (allow_run_flags && arg == "--plan") out.plan = value();
    else if (allow_run_flags && arg == "--ckpt-out") out.ckpt_out = value();
    else if (allow_run_flags && arg == "--ckpt-every")
      out.ckpt_every = sim::parseU64Strict(value(), "--ckpt-every");
    else if (allow_run_flags && arg == "--from-ckpt") out.from_ckpt = value();
    else if (arg == "--seed") out.seed = sim::parseU64Strict(value(), "--seed");
    else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return false;
    } else {
      std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

core::InterfaceConfig configByName(const std::string& name) {
  const sim::PresetFn* fn = sim::presetRegistry().tryGet(name);
  if (fn == nullptr) {
    std::fprintf(stderr, "unknown config '%s' — registered presets:\n",
                 name.c_str());
    for (const auto& known : sim::presetRegistry().names())
      std::fprintf(stderr, "  %s\n", known.c_str());
    std::exit(1);
  }
  return (*fn)();
}

/// The shared report for `run` and `synth`. The workload name is printed on
/// its own line so the rest of the report diffs clean between a replay
/// ("trace:gcc") and its synthetic original ("gcc").
void printRunSummary(const sim::RunOutput& out) {
  std::printf("workload: %s\n", out.benchmark.c_str());
  std::printf("config:   %s\n", out.config.c_str());
  std::printf("%llu instr, %llu cycles, IPC %.6f\n",
              static_cast<unsigned long long>(out.instructions),
              static_cast<unsigned long long>(out.cycles), out.ipc);
  std::printf("dynamic %.6f uJ, leakage %.6f uJ, total %.6f uJ\n",
              out.dynamic_pj * 1e-6, out.leakage_pj * 1e-6,
              out.total_pj * 1e-6);
  std::printf(
      "way coverage %.4f%%, L1 load miss rate %.4f%%, merged loads %.4f%%\n",
      100.0 * out.way_coverage, 100.0 * out.l1_load_miss_rate,
      100.0 * out.merged_load_fraction);
  std::printf("%s", out.energy_detail.toTable().c_str());
}

int runWorkload(const trace::WorkloadProfile& wl, const RunFlags& flags) {
  // A cadence with nowhere to write would silently checkpoint nothing —
  // reject like every other flag misuse.
  if (flags.ckpt_every != 0 && flags.ckpt_out.empty()) {
    std::fprintf(stderr, "--ckpt-every needs --ckpt-out\n");
    std::exit(2);
  }
  sim::RunConfig rc;
  rc.workload = wl;
  rc.interface_cfg = configByName(flags.config);
  rc.system = sim::defaultSystem();
  rc.instructions = flags.instructions;
  rc.seed = flags.seed;
  rc.ckpt_out = flags.ckpt_out;
  rc.ckpt_every = flags.ckpt_every;
  rc.start_ckpt = flags.from_ckpt;
  printRunSummary(sim::runOne(rc));
  return 0;
}

int cmdGen(const std::string& bench, const std::string& count_str,
           const std::string& path, int argc, char** argv, int first) {
  RunFlags flags;
  if (!parseRunFlags(argc, argv, first, flags, /*allow_run_flags=*/false))
    return 2;
  if (sim::workloadRegistry().tryGet(bench) == nullptr) {
    std::fprintf(stderr, "unknown benchmark '%s' — registered workloads:\n",
                 bench.c_str());
    for (const auto& known : sim::workloadRegistry().names())
      std::fprintf(stderr, "  %s\n", known.c_str());
    return 1;
  }
  sim::RunConfig rc;
  rc.workload = sim::workloadRegistry().get(bench);
  rc.system = sim::defaultSystem();
  rc.instructions = sim::parseU64Strict(count_str, "record count");
  if (rc.instructions == 0) {
    std::fprintf(stderr, "record count must be > 0\n");
    return 2;
  }
  rc.seed = flags.seed;
  const std::uint64_t n = sim::captureTrace(rc, path);
  std::printf("wrote %llu records to %s\n",
              static_cast<unsigned long long>(n), path.c_str());
  return 0;
}

int cmdAnalyze(const std::string& path) {
  trace::TraceReader rd(path);
  if (!rd.ok()) {
    std::fprintf(stderr, "%s\n", rd.error().c_str());
    return 1;
  }
  trace::LocalityAnalyzer an(rd.layout());
  trace::InstrRecord r;
  std::uint64_t mem = 0, total = 0;
  while (rd.next(r)) {
    an.observe(r);
    ++total;
    mem += r.isMem();
  }
  if (!rd.ok()) {
    // Partial-trace results are worse than no results: a truncated or
    // corrupt file must fail loudly, never report locality stats quietly.
    std::fprintf(stderr, "%s\n", rd.error().c_str());
    return 1;
  }
  if (total == 0) {
    std::printf("0 records — empty trace, nothing to analyze\n");
    return 0;
  }
  std::printf("%llu records, %.1f%% memory references\n",
              static_cast<unsigned long long>(total),
              100.0 * static_cast<double>(mem) / static_cast<double>(total));
  std::printf("%-6s %10s %10s\n", "x", "followed%", "grp>8%");
  for (const auto& g : an.pageGroups())
    std::printf("%-6u %10.1f %10.1f\n", g.allowed_intermediates,
                100 * g.frac_followed, 100 * g.frac_group_gt8);
  std::printf("same-line follow rate: %.1f%%\n",
              100 * an.sameLineFollowedFraction());
  return 0;
}

int cmdRun(const std::string& path, int argc, char** argv, int first) {
  RunFlags flags;
  if (!parseRunFlags(argc, argv, first, flags)) return 2;
  if (!flags.plan.empty() && !flags.sampled) {
    std::fprintf(stderr, "--plan only makes sense with --sampled\n");
    return 2;
  }
  if (flags.sampled && (!flags.ckpt_out.empty() || !flags.from_ckpt.empty())) {
    std::fprintf(stderr, "--sampled does not take --ckpt-out/--from-ckpt\n");
    return 2;
  }
  if (flags.sampled) {
    // A sample plan and an instruction cap do not compose — the plan
    // decides what is simulated, so --instr (and MALEC_INSTR) are rejected
    // here instead of silently shaping nothing.
    if (flags.instructions != 0) {
      std::fprintf(stderr, "--sampled does not take --instr\n");
      return 2;
    }
    if (sim::instructionBudget(0) != 0) {
      std::fprintf(stderr,
                   "--sampled does not honour MALEC_INSTR — unset it (the "
                   "sample plan decides what is simulated)\n");
      return 2;
    }
    return runWorkload(
        sim::sampledWorkload(sim::traceWorkload(path), flags.plan), flags);
  }
  // MALEC_INSTR caps replays exactly like synthetic runs (so `run` and
  // `synth` stay diffable under it); 0 still means the whole file.
  if (flags.instructions == 0) flags.instructions = sim::instructionBudget(0);
  return runWorkload(sim::traceWorkload(path), flags);
}

int cmdPhases(const std::string& path, int argc, char** argv, int first) {
  phase::PlanParams params;
  std::string out_path = phase::planSidecarPath(path);
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--interval")
      params.interval_size = sim::parseU64Strict(value(), "--interval");
    else if (arg == "--phases") {
      const std::uint64_t k = sim::parseU64Strict(value(), "--phases");
      // Range-check before the narrowing cast, like --jobs/MALEC_JOBS: a
      // value past u32 must not silently truncate to a coarser plan.
      if (k > std::numeric_limits<std::uint32_t>::max()) {
        std::fprintf(stderr, "--phases %llu exceeds the supported range\n",
                     static_cast<unsigned long long>(k));
        return 2;
      }
      params.phases = static_cast<std::uint32_t>(k);
    } else if (arg == "--warmup")
      params.warmup_instructions = sim::parseU64Strict(value(), "--warmup");
    else if (arg == "--seed")
      params.seed = sim::parseU64Strict(value(), "--seed");
    else if (arg == "--out")
      out_path = value();
    else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (params.interval_size == 0 || params.phases == 0) {
    std::fprintf(stderr, "--interval and --phases must be > 0\n");
    return 2;
  }

  phase::PlanSummary summary;
  const phase::SamplePlan plan =
      phase::buildSamplePlan(path, params, &summary);
  std::string err;
  if (!phase::saveSamplePlan(plan, out_path, err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  std::printf("%llu records -> %llu intervals of %llu -> %u phases "
              "(k-means: %u iterations)\n",
              static_cast<unsigned long long>(plan.trace_records),
              static_cast<unsigned long long>(summary.intervals),
              static_cast<unsigned long long>(plan.interval_size),
              summary.clusters, summary.kmeans_iterations);
  for (std::size_t i = 0; i < plan.picks.size(); ++i)
    std::printf("  phase %zu: interval %llu, weight %5.1f%%\n", i,
                static_cast<unsigned long long>(plan.picks[i].interval_index),
                100.0 * plan.weight(i));
  std::printf(
      "sampled replay simulates %llu of %llu instructions (%.1f%%, "
      "warmup %llu per pick)\n",
      static_cast<unsigned long long>(plan.simulatedInstructions()),
      static_cast<unsigned long long>(plan.trace_records),
      100.0 * static_cast<double>(plan.simulatedInstructions()) /
          static_cast<double>(plan.trace_records),
      static_cast<unsigned long long>(plan.warmup_instructions));
  std::printf("wrote sample plan to %s\n", out_path.c_str());
  return 0;
}

int cmdSynth(const std::string& bench, int argc, char** argv, int first) {
  RunFlags flags;
  if (!parseRunFlags(argc, argv, first, flags)) return 2;
  // Synthetic runs have no plan to sample — reject rather than silently
  // print a full run the user believes was sampled.
  if (flags.sampled || !flags.plan.empty()) {
    std::fprintf(stderr, "synth does not take --sampled/--plan\n");
    return 2;
  }
  if (sim::workloadRegistry().tryGet(bench) == nullptr) {
    std::fprintf(stderr, "unknown benchmark '%s'\n", bench.c_str());
    return 1;
  }
  if (flags.instructions == 0)
    flags.instructions = sim::instructionBudget(200'000);
  return runWorkload(sim::workloadRegistry().get(bench), flags);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 5 && std::strcmp(argv[1], "gen") == 0)
    return cmdGen(argv[2], argv[3], argv[4], argc, argv, 5);
  if (argc >= 3 && std::strcmp(argv[1], "analyze") == 0)
    return cmdAnalyze(argv[2]);
  if (argc >= 3 && std::strcmp(argv[1], "run") == 0)
    return cmdRun(argv[2], argc, argv, 3);
  if (argc >= 3 && std::strcmp(argv[1], "synth") == 0)
    return cmdSynth(argv[2], argc, argv, 3);
  if (argc >= 3 && std::strcmp(argv[1], "phases") == 0)
    return cmdPhases(argv[2], argc, argv, 3);

  std::fprintf(stderr,
               "usage:\n"
               "  %s gen <benchmark> <N> <file> [--seed S]\n"
               "  %s analyze <file>\n"
               "  %s run <file> [--config NAME] [--instr N] [--seed S]"
               " [--sampled [--plan PATH]]\n"
               "             [--ckpt-out PATH --ckpt-every N]"
               " [--from-ckpt PATH]\n"
               "  %s synth <benchmark> [--config NAME] [--instr N]"
               " [--seed S] [--ckpt-out PATH --ckpt-every N]"
               " [--from-ckpt PATH]\n"
               "  %s phases <file> [--interval N] [--phases K] [--warmup W]"
               " [--seed S] [--out PATH]\n",
               argv[0], argv[0], argv[0], argv[0], argv[0]);
  return 2;
}
