#include "explore/explorer.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common/check.h"
#include "sim/presets.h"
#include "sim/suite.h"
#include "store/result_store.h"
#include "sweep/fault.h"

namespace malec::explore {

namespace {

/// One searchable parameter: a name tag (for the canonical candidate
/// name), the value list (index 0 = the paper's MALEC default, so the
/// all-zeros candidate IS the MALEC preset) and the setter. Axis and
/// value order are FIXED — the deterministic-search contract hangs on it.
struct Axis {
  const char* tag;
  std::vector<std::uint32_t> values;
  void (*apply)(core::InterfaceConfig&, std::uint32_t);
  std::string (*label)(std::uint32_t);
};

std::string numLabel(std::uint32_t v) { return std::to_string(v); }

const std::vector<Axis>& axes() {
  static const std::vector<Axis> a = {
      {"rb", {3, 1, 2, 4},
       [](core::InterfaceConfig& c, std::uint32_t v) { c.result_buses = v; },
       numLabel},
      {"cs", {2, 0, 1, 4},
       [](core::InterfaceConfig& c, std::uint32_t v) { c.ib_carry_slots = v; },
       numLabel},
      {"gc", {5, 3, 7},
       [](core::InterfaceConfig& c, std::uint32_t v) {
         c.ib_group_comparators = v;
       },
       numLabel},
      {"mw", {3, 0, 1, 7},
       [](core::InterfaceConfig& c, std::uint32_t v) { c.merge_window = v; },
       numLabel},
      {"sp", {1, 0},
       [](core::InterfaceConfig& c, std::uint32_t v) {
         c.subblocked_pair_read = v != 0;
       },
       numLabel},
      // Way determination: 0 = way tables, 1..3 = WDU 8/16/32, 4 = none.
      {"wd", {0, 1, 2, 3, 4},
       [](core::InterfaceConfig& c, std::uint32_t v) {
         if (v == 0) {
           c.waydet = core::WayDetKind::kWayTables;
         } else if (v <= 3) {
           c.waydet = core::WayDetKind::kWdu;
           c.wdu_entries = 8u << (v - 1);
         } else {
           c.waydet = core::WayDetKind::kNone;
         }
       },
       [](std::uint32_t v) -> std::string {
         if (v == 0) return "wt";
         if (v <= 3) return "wdu" + std::to_string(8u << (v - 1));
         return "none";
       }},
      {"fb", {1, 0},
       [](core::InterfaceConfig& c, std::uint32_t v) {
         c.last_entry_feedback = v != 0;
       },
       numLabel},
      {"lat", {2, 1, 3},
       [](core::InterfaceConfig& c, std::uint32_t v) { c.l1_latency = v; },
       numLabel},
  };
  return a;
}

/// A point in the axis lattice: one value index per axis.
using Point = std::vector<std::uint8_t>;

std::string candidateName(const Point& p) {
  const auto& ax = axes();
  std::string name = "ex";
  for (std::size_t a = 0; a < ax.size(); ++a) {
    name += "_";
    name += ax[a].tag;
    name += ax[a].label(ax[a].values[p[a]]);
  }
  return name;
}

core::InterfaceConfig candidateConfig(const Point& p) {
  const auto& ax = axes();
  core::InterfaceConfig cfg = sim::presetMalec();
  for (std::size_t a = 0; a < ax.size(); ++a)
    ax[a].apply(cfg, ax[a].values[p[a]]);
  cfg.name = candidateName(p);
  return cfg;
}

struct Candidate {
  Point point;
  std::string name;
  // Geometric means over the suite's workloads, set after evaluation.
  double ipc = 0.0;
  double energy_pj = 0.0;
  double cycles = 0.0;
};

enum class Objective { kIpc, kEnergy, kCycles };

std::vector<Objective> parseObjectives(const std::string& s) {
  std::vector<Objective> objs;
  std::size_t at = 0;
  while (at <= s.size()) {
    const std::size_t comma = std::min(s.find(',', at), s.size());
    const std::string tok = s.substr(at, comma - at);
    if (tok == "ipc") {
      objs.push_back(Objective::kIpc);
    } else if (tok == "energy") {
      objs.push_back(Objective::kEnergy);
    } else if (tok == "cycles") {
      objs.push_back(Objective::kCycles);
    } else {
      const std::string msg = "unknown explore objective '" + tok +
                              "' — valid: ipc, energy, cycles";
      MALEC_CHECK_MSG(false, msg.c_str());
    }
    at = comma + 1;
  }
  MALEC_CHECK_MSG(!objs.empty(), "explore needs at least one objective");
  for (std::size_t i = 0; i < objs.size(); ++i)
    for (std::size_t j = i + 1; j < objs.size(); ++j)
      MALEC_CHECK_MSG(objs[i] != objs[j], "duplicate explore objective");
  return objs;
}

/// Objective value with "lower is better" orientation.
double objectiveValue(const Candidate& c, Objective o) {
  switch (o) {
    case Objective::kIpc: return -c.ipc;
    case Objective::kEnergy: return c.energy_pj;
    case Objective::kCycles: return c.cycles;
  }
  return 0.0;
}

bool dominates(const Candidate& a, const Candidate& b,
               const std::vector<Objective>& objs) {
  bool strictly = false;
  for (Objective o : objs) {
    const double va = objectiveValue(a, o), vb = objectiveValue(b, o);
    if (va > vb) return false;
    if (va < vb) strictly = true;
  }
  return strictly;
}

/// Indices (ascending — the lowest-index tie-break) of the Pareto-optimal
/// evaluated candidates. A candidate equal to an earlier one on every
/// objective does not dominate it, so both stay — and ties keep file
/// order, which is evaluation order.
std::vector<std::size_t> frontierIndices(const std::vector<Candidate>& all,
                                         const std::vector<Objective>& objs) {
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < all.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < all.size() && !dominated; ++j)
      if (j != i && dominates(all[j], all[i], objs)) dominated = true;
    if (!dominated) front.push_back(i);
  }
  return front;
}

double geomean(const std::vector<double>& vs) {
  MALEC_CHECK_MSG(!vs.empty(), "geomean of an empty set");
  double log_sum = 0.0;
  for (double v : vs) {
    MALEC_CHECK_MSG(v > 0.0, "explore metrics must be positive for geomeans");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(vs.size()));
}

}  // namespace

int runExplore(const ExploreOptions& opts,
               const std::vector<sim::ResultSink*>& sinks) {
  MALEC_CHECK_MSG(!opts.store.empty(), "explore needs a --store path");
  MALEC_CHECK_MSG(opts.rounds >= 1 && opts.rounds <= kMaxRounds,
                  "explore rounds must be in [1, 64]");
  MALEC_CHECK_MSG(opts.batch >= 1 && opts.batch <= kMaxBatch,
                  "explore batch must be in [1, 256]");
  const std::vector<Objective> objs = parseObjectives(opts.objectives);

  // The base suite supplies workloads, budget, seed and jobs — resolved
  // exactly like a normal run (same fallbacks, same empty-filter error).
  const sim::ExperimentSpec& spec = sim::specRegistry().get(opts.suite);
  MALEC_CHECK_MSG(!spec.custom,
                  "explore needs a (workload x config) grid suite for its "
                  "workload set");
  sim::SuiteOptions sopts;
  sopts.instructions = opts.instructions;
  sopts.seed = opts.seed;
  sopts.jobs = opts.jobs;
  sopts.workload_filter = opts.workload_filter;
  sopts.progress = false;
  sim::SuiteContext ctx{spec, sopts};
  sim::resolveSuiteContext(ctx);
  std::vector<std::string> wl_names;
  for (const auto& wl : ctx.workloads) wl_names.push_back(wl.name);

  // Store state: fresh runs refuse an existing file (like the journal);
  // --resume requires one. Under resume the store must hold EXACTLY the
  // expected round sequence as a prefix — anything else is foreign.
  store::ResultStore rs;
  std::string err;
  if (opts.resume) {
    if (!rs.load(opts.store, err)) MALEC_CHECK_MSG(false, err.c_str());
  } else if (std::filesystem::exists(opts.store)) {
    const std::string msg =
        "store '" + opts.store + "' already exists — resume the "
        "exploration with --resume, or remove/redirect the store";
    MALEC_CHECK_MSG(false, msg.c_str());
  }

  // The injected crash that tests and CI resume from (sweep/fault.h,
  // explore-crash): exit 17 right after persisting this many fresh rounds;
  // 0 = never.
  const std::uint64_t crash_after =
      sweep::faultSpecFromEnv().exploreCrashRound();
  std::uint64_t fresh_rounds = 0;

  std::vector<Candidate> evaluated;   ///< evaluation (= file) order
  std::vector<Point> seen;            ///< dedupe, same order
  /// Store segments accounted for so far — replayed under --resume or
  /// appended by a fresh round. Rounds replay rs.segments()[consumed] as
  /// long as one exists; a leftover after the last round means the store
  /// holds MORE rounds than requested, which resume treats as foreign.
  std::size_t consumed_segments = 0;

  auto isSeen = [&seen](const Point& p) {
    return std::find(seen.begin(), seen.end(), p) != seen.end();
  };

  for (std::uint64_t round = 0; round < opts.rounds; ++round) {
    // --- candidate generation (pure function of prior results) ------------
    std::vector<Point> batch;
    if (round == 0) {
      // The MALEC default, then its single-axis neighbours in axis/value
      // order — the seed batch.
      batch.push_back(Point(axes().size(), 0));
      for (std::size_t a = 0;
           a < axes().size() && batch.size() < opts.batch; ++a)
        for (std::size_t v = 1;
             v < axes()[a].values.size() && batch.size() < opts.batch; ++v) {
          Point p(axes().size(), 0);
          p[a] = static_cast<std::uint8_t>(v);
          batch.push_back(p);
        }
    } else {
      // Single-axis neighbours of the current frontier, frontier points in
      // evaluation order, axes/values in table order, first-appearance
      // dedupe — lowest index wins every tie.
      const std::vector<std::size_t> front = frontierIndices(evaluated, objs);
      for (std::size_t fi : front) {
        const Point& base = evaluated[fi].point;
        for (std::size_t a = 0; a < axes().size(); ++a)
          for (std::size_t v = 0; v < axes()[a].values.size(); ++v) {
            if (v == base[a]) continue;
            Point p = base;
            p[a] = static_cast<std::uint8_t>(v);
            if (isSeen(p) ||
                std::find(batch.begin(), batch.end(), p) != batch.end())
              continue;
            batch.push_back(std::move(p));
            if (batch.size() >= opts.batch) break;
          }
        if (batch.size() >= opts.batch) break;
      }
      if (batch.empty()) {
        if (opts.progress)
          std::fprintf(stderr, "explore: frontier converged after %llu "
                       "rounds\n", static_cast<unsigned long long>(round));
        break;
      }
    }

    std::vector<core::InterfaceConfig> cfgs;
    std::vector<std::string> cfg_names;
    for (const Point& p : batch) {
      cfgs.push_back(candidateConfig(p));
      cfg_names.push_back(cfgs.back().name);
    }
    const std::string round_suite =
        "explore:" + spec.name + ":round" + std::to_string(round);
    const std::uint64_t fp = sim::gridFingerprintParts(
        round_suite, ctx.instructions, ctx.seed, wl_names, cfg_names);

    // --- evaluate: decode the stored segment, or simulate + append --------
    std::vector<std::vector<sim::RunOutput>> results;
    if (consumed_segments < rs.segments().size()) {
      const store::StoreSegment& seg = rs.segments()[consumed_segments];
      if (seg.fingerprint != fp) {
        const std::string msg =
            "store '" + opts.store + "' is foreign to this exploration: "
            "segment " + std::to_string(consumed_segments) + " ('" +
            seg.suite + "', fingerprint " + std::to_string(seg.fingerprint) +
            ") does not match the expected round '" + round_suite +
            "' (fingerprint " + std::to_string(fp) + ") — same suite, "
            "--filter, budget, seed, batch and objectives required";
        MALEC_CHECK_MSG(false, msg.c_str());
      }
      MALEC_CHECK_MSG(seg.run_count == wl_names.size() * cfgs.size(),
                      "stored explore round has the wrong run count");
      // Segment runs are in matrix order; find its base row index.
      std::size_t base = 0;
      for (std::size_t s = 0; s < consumed_segments; ++s)
        base += rs.segments()[s].run_count;
      results.assign(wl_names.size(), {});
      for (std::size_t w = 0; w < wl_names.size(); ++w) {
        results[w].resize(cfgs.size());
        for (std::size_t c = 0; c < cfgs.size(); ++c) {
          sim::RunOutput out;
          std::string decode_err;
          const bool ok =
              rs.decodeRun(base + w * cfgs.size() + c, out, decode_err);
          MALEC_CHECK_MSG(ok, "stored explore run failed to decode");
          results[w][c] = std::move(out);
        }
      }
      ++consumed_segments;
      if (opts.progress)
        std::fprintf(stderr, "explore: round %llu restored from store\n",
                     static_cast<unsigned long long>(round));
    } else {
      results = sim::runMatrixParallel(ctx.workloads, cfgs, ctx.instructions,
                                       ctx.seed, ctx.jobs);
      std::vector<store::ResultStore::RunEntry> entries;
      for (std::size_t w = 0; w < wl_names.size(); ++w)
        for (std::size_t c = 0; c < cfgs.size(); ++c)
          entries.push_back({wl_names[w], cfg_names[c], &results[w][c]});
      store::StoreSegment seg;
      seg.suite = round_suite;
      seg.fingerprint = fp;
      seg.instructions = ctx.instructions;
      seg.seed = ctx.seed;
      rs.appendSegment(seg, entries);
      if (!rs.save(opts.store, err)) MALEC_CHECK_MSG(false, err.c_str());
      // The appended segment is this round's — consumed, so the next
      // round never mistakes it for a stored round to replay.
      ++consumed_segments;
      ++fresh_rounds;
      if (opts.progress)
        std::fprintf(stderr, "explore: round %llu evaluated %zu candidates\n",
                     static_cast<unsigned long long>(round), cfgs.size());
      if (crash_after > 0 && fresh_rounds == crash_after) {
        std::fprintf(stderr,
                     "explore: injected crash after %llu fresh rounds\n",
                     static_cast<unsigned long long>(fresh_rounds));
        std::fflush(nullptr);
        ::_exit(17);
      }
    }

    // --- score the batch ---------------------------------------------------
    for (std::size_t c = 0; c < batch.size(); ++c) {
      Candidate cand;
      cand.point = batch[c];
      cand.name = cfg_names[c];
      std::vector<double> ipcs, energies, cycles;
      for (std::size_t w = 0; w < wl_names.size(); ++w) {
        ipcs.push_back(results[w][c].ipc);
        energies.push_back(results[w][c].total_pj);
        cycles.push_back(static_cast<double>(results[w][c].cycles));
      }
      cand.ipc = geomean(ipcs);
      cand.energy_pj = geomean(energies);
      cand.cycles = geomean(cycles);
      evaluated.push_back(std::move(cand));
      seen.push_back(batch[c]);
    }
  }

  if (opts.resume && consumed_segments < rs.segments().size()) {
    const std::string msg =
        "store '" + opts.store + "' holds " +
        std::to_string(rs.segments().size()) + " explore rounds but only " +
        std::to_string(consumed_segments) + " were requested — raise "
        "--rounds or query the store as-is";
    MALEC_CHECK_MSG(false, msg.c_str());
  }

  // --- emit the frontier ----------------------------------------------------
  sim::SuiteInfo info;
  info.name = "explore:" + spec.name;
  info.title = "adaptive design-space exploration over '" + spec.title + "'";
  info.instructions = ctx.instructions;
  info.seed = ctx.seed;
  info.jobs = ctx.jobs;
  for (sim::ResultSink* s : sinks) s->beginSuite(info);

  const std::vector<std::size_t> front = frontierIndices(evaluated, objs);
  // Display order: best IPC first; exact ties keep evaluation order.
  std::vector<std::size_t> order = front;
  std::stable_sort(order.begin(), order.end(),
                   [&evaluated](std::size_t a, std::size_t b) {
                     return evaluated[a].ipc > evaluated[b].ipc;
                   });
  sim::Table t("Pareto frontier (" + opts.objectives + ") — " +
                   std::to_string(evaluated.size()) + " candidates evaluated",
               {"IPC", "energy [pJ]", "cycles"});
  for (std::size_t i : order)
    t.addRow(evaluated[i].name,
             {evaluated[i].ipc, evaluated[i].energy_pj, evaluated[i].cycles});
  for (sim::ResultSink* s : sinks) s->table(t, "explore_frontier", 4);
  for (sim::ResultSink* s : sinks)
    s->note("explored " + std::to_string(evaluated.size()) + " candidates (" +
            std::to_string(rs.segments().size()) + " rounds, objectives " +
            opts.objectives + "); every run is stored in '" + opts.store +
            "' — `malec_bench query --store " + opts.store + "`\n");
  for (sim::ResultSink* s : sinks) s->endSuite();
  return 0;
}

}  // namespace malec::explore
