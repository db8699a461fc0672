// The one experiment driver: runs any registered experiment spec through
// the declarative suite layer, replacing the per-figure bench binaries.
//
//   malec_bench --list                      enumerate registered specs
//   malec_bench --suite fig4a               run one suite (repeatable)
//   malec_bench --all                       run every registered suite
//   malec_bench --filter gcc                only workloads matching substring
//   malec_bench --sink table|csv|json       select sinks (repeatable)
//   malec_bench --csv-dir DIR               CSV output directory
//   malec_bench --json PATH                 JSON-lines output file ('-' = stdout)
//   malec_bench --instr N --seed N --jobs N budget / seed / thread overrides
//
// Result store (docs/FILE_FORMATS.md, ".mstore"): every sink run can
// land durably in a queryable store, and the `query` subcommand reads it —
//
//   malec_bench --suite fig4a --sink store --store results.mstore
//   malec_bench query --store results.mstore
//                     [--select COLS] [--where-suite/-workload/-config SUB]
//                     [--seed N] [--sort COL [--desc]] [--group-geomean]
//                     [--limit N] [--format table|json]
//
// Defaults: console table sink only; MALEC_INSTR and MALEC_JOBS keep
// working unless --instr / --jobs override them.
// Setting MALEC_TRACE_DIR registers every *.mtrace capture in it as a
// "trace:<stem>" workload — `--suite trace_replay` runs them through the
// Table-I interfaces (capture files with `trace_tools gen`), and
// `--suite phase_sampled` compares sampled vs full replay for captures
// with a `.mplan` sidecar (write plans with `trace_tools phases`).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sim/suite.h"
#include "store/query.h"
#include "store/result_store.h"
#include "store/store_sink.h"

namespace {

using namespace malec;

int usage(const char* argv0, int code) {
  std::fprintf(stderr,
               "usage: %s [--list] [--suite NAME]... [--all] [--filter SUB]\n"
               "          [--sink table|csv|json|store]... [--csv-dir DIR]\n"
               "          [--json PATH] [--store PATH]\n"
               "          [--instr N] [--seed N] [--jobs N]\n"
               "       %s query --store PATH [--select COL,...]\n"
               "          [--where-suite SUB] [--where-workload SUB]\n"
               "          [--where-config SUB] [--seed N] [--sort COL]\n"
               "          [--desc] [--group-geomean] [--limit N]\n"
               "          [--format table|json]\n",
               argv0, argv0);
  return code;
}

void listSpecs() {
  const auto& reg = sim::specRegistry();
  std::printf("registered experiment specs (%zu):\n", reg.size());
  for (const auto& name : reg.names()) {
    const sim::ExperimentSpec& spec = reg.get(name);
    std::printf("  %-22s %s\n", name.c_str(), spec.title.c_str());
  }
  std::printf(
      "\nworkloads: %zu registered, presets: %zu registered "
      "(see sim/registry.h)\n",
      sim::workloadRegistry().size(), sim::presetRegistry().size());
}

/// Strict --seed parse for the suite runner: its options use seed 0 to mean
/// "the spec's seed", so an explicit --seed 0 would silently run a
/// different seed than the one asked for. (`query --seed 0` is a filter
/// and parses with parseU64Strict directly.)
std::uint64_t parseRunSeed(const char* value) {
  const std::uint64_t seed = sim::parseU64Strict(value, "--seed");
  if (seed == 0) {
    std::fprintf(stderr,
                 "--seed 0 is not a seed: 0 would select the spec's seed — "
                 "pass a seed of 1 or more, or omit --seed\n");
    std::exit(2);
  }
  return seed;
}

/// "--flag needs a value": returns the value after argv[i] and steps past
/// it.
const char* needValueAt(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "%s requires a value\n", argv[i]);
    std::exit(usage(argv[0], 2));
  }
  return argv[++i];
}

/// Split a comma list strictly: empty items ("a,,b", trailing comma) are
/// hard errors.
std::vector<std::string> splitCommaList(const std::string& s,
                                        const char* what) {
  std::vector<std::string> out;
  std::size_t at = 0;
  while (at <= s.size()) {
    const std::size_t comma = std::min(s.find(',', at), s.size());
    const std::string tok = s.substr(at, comma - at);
    if (tok.empty()) {
      std::fprintf(stderr, "%s has an empty item in '%s'\n", what, s.c_str());
      std::exit(2);
    }
    out.push_back(tok);
    at = comma + 1;
  }
  return out;
}

/// `malec_bench query`: load a store, run one query, render it.
int cmdQuery(int argc, char** argv) {
  std::string store_path, format = "table";
  store::QueryOptions q;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--store") {
      store_path = needValueAt(argc, argv, i);
    } else if (arg == "--select") {
      q.select = splitCommaList(needValueAt(argc, argv, i), "--select");
    } else if (arg == "--where-suite") {
      q.suite_contains = needValueAt(argc, argv, i);
    } else if (arg == "--where-workload") {
      q.workload_contains = needValueAt(argc, argv, i);
    } else if (arg == "--where-config") {
      q.config_contains = needValueAt(argc, argv, i);
    } else if (arg == "--seed") {
      q.seed = sim::parseU64Strict(needValueAt(argc, argv, i), "--seed");
      q.have_seed = true;
    } else if (arg == "--sort") {
      q.sort_by = needValueAt(argc, argv, i);
    } else if (arg == "--desc") {
      q.sort_desc = true;
    } else if (arg == "--group-geomean") {
      q.group_geomean = true;
    } else if (arg == "--limit") {
      q.limit = sim::parseU64Strict(needValueAt(argc, argv, i), "--limit");
    } else if (arg == "--format") {
      format = needValueAt(argc, argv, i);
      if (format != "table" && format != "json") {
        std::fprintf(stderr, "unknown --format '%s' (table|json)\n",
                     format.c_str());
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0], 0);
    } else {
      std::fprintf(stderr, "query: unknown option '%s'\n", argv[i]);
      return usage(argv[0], 2);
    }
  }
  if (store_path.empty()) {
    std::fprintf(stderr, "query needs --store PATH\n");
    return 2;
  }
  store::ResultStore rs;
  std::string err;
  if (!rs.load(store_path, err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  const store::QueryResult r = store::runQuery(rs, q);
  if (format == "json")
    store::printQueryJson(r, stdout);
  else
    store::printQueryTable(r, stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Subcommand dispatch first: `query` has its own flag set (a flag-style
  // first arg falls through to the suite-runner parser).
  if (argc >= 2 && std::strcmp(argv[1], "query") == 0)
    return cmdQuery(argc, argv);
  bool list = false, all = false;
  bool want_table = false, want_csv = false, want_json = false;
  bool want_store = false;
  std::string csv_dir, json_path, store_path;
  std::vector<std::string> suites;
  sim::SuiteOptions opts;

  auto needValue = [&](int& i) { return needValueAt(argc, argv, i); };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      list = true;
    } else if (arg == "--all") {
      all = true;
    } else if (arg == "--suite") {
      suites.push_back(needValue(i));
    } else if (arg == "--filter") {
      opts.workload_filter = needValue(i);
    } else if (arg == "--sink") {
      const std::string kind = needValue(i);
      if (kind == "table") want_table = true;
      else if (kind == "csv") want_csv = true;
      else if (kind == "json") want_json = true;
      else if (kind == "store") want_store = true;
      else {
        std::fprintf(stderr, "unknown sink '%s' (table|csv|json|store)\n",
                     kind.c_str());
        return usage(argv[0], 2);
      }
    } else if (arg == "--csv-dir") {
      csv_dir = needValue(i);
      want_csv = true;
    } else if (arg == "--json") {
      json_path = needValue(i);
      want_json = true;
    } else if (arg == "--store") {
      store_path = needValue(i);
      want_store = true;
    } else if (arg == "--instr") {
      opts.instructions = sim::parseU64Strict(needValue(i), "--instr");
    } else if (arg == "--seed") {
      opts.seed = parseRunSeed(needValue(i));
    } else if (arg == "--jobs") {
      const std::uint64_t jobs = sim::parseU64Strict(needValue(i), "--jobs");
      if (jobs > std::numeric_limits<unsigned>::max()) {
        std::fprintf(stderr, "--jobs %llu exceeds the supported range\n",
                     static_cast<unsigned long long>(jobs));
        return 2;
      }
      opts.jobs = static_cast<unsigned>(jobs);
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0], 0);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
      return usage(argv[0], 2);
    }
  }

  if (list) {
    listSpecs();
    return 0;
  }

  if (all) {
    // --all means "everything runnable": a suite this sweep cannot run is
    // skipped with a note, never a mid-run abort; an explicit --suite
    // <name> fails loudly inside the suite instead.
    for (const auto& name : sim::specRegistry().names()) {
      const std::string why =
          sim::allSkipReason(sim::specRegistry().get(name), opts);
      if (!why.empty()) {
        std::fprintf(stderr, "skipping suite '%s' (%s)\n", name.c_str(),
                     why.c_str());
        continue;
      }
      suites.push_back(name);
    }
  }
  if (suites.empty()) {
    std::fprintf(stderr, "nothing to do: pass --list, --suite NAME or --all\n");
    return usage(argv[0], 2);
  }

  // Resolve every suite name up front so a typo fails before hours of
  // simulation, with the full inventory in the message.
  for (const auto& name : suites) {
    if (sim::specRegistry().tryGet(name) == nullptr) {
      std::fprintf(stderr, "unknown suite '%s' — registered suites:\n",
                   name.c_str());
      for (const auto& known : sim::specRegistry().names())
        std::fprintf(stderr, "  %s\n", known.c_str());
      return 1;
    }
  }

  // --- sink assembly --------------------------------------------------------
  // No explicit --sink selection = the console table.
  if (!want_table && !want_csv && !want_json && !want_store) want_table = true;
  if (want_csv && csv_dir.empty()) {
    std::fprintf(stderr, "--sink csv needs --csv-dir DIR\n");
    return 2;
  }
  if (want_store && store_path.empty()) {
    std::fprintf(stderr, "--sink store needs --store PATH\n");
    return 2;
  }

  std::vector<std::unique_ptr<sim::ResultSink>> owned;
  std::FILE* json_file = nullptr;
  if (want_table) owned.push_back(std::make_unique<sim::ConsoleSink>());
  if (want_csv) owned.push_back(std::make_unique<sim::CsvDirSink>(csv_dir));
  if (want_store)
    owned.push_back(std::make_unique<store::StoreSink>(store_path));
  if (want_json) {
    if (json_path.empty() || json_path == "-") {
      owned.push_back(std::make_unique<sim::JsonLinesSink>(stdout));
    } else {
      json_file = std::fopen(json_path.c_str(), "w");
      if (json_file == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     json_path.c_str());
        return 1;
      }
      owned.push_back(std::make_unique<sim::JsonLinesSink>(json_file));
    }
  }
  std::vector<sim::ResultSink*> sinks;
  for (const auto& s : owned) sinks.push_back(s.get());

  for (const auto& name : suites)
    sim::runSuite(sim::specRegistry().get(name), opts, sinks);

  owned.clear();
  if (json_file != nullptr) std::fclose(json_file);
  return 0;
}
