#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>
#include <thread>

#include "common/binio.h"
#include "host_clock.h"
#include "sim/differential.h"
#include "sim/presets.h"
#include "sim/registry.h"
#include "sim/suite.h"
#include "store/query.h"
#include "store/result_store.h"
#include "store/store_sink.h"
#include "sweep/result_codec.h"
#include "traced_stack.h"

namespace perfbench {

namespace sim = malec::sim;
namespace store = malec::store;

void Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

namespace {

/// The three workload classes of the single-run workloads: compute-bound
/// with high page locality, streaming with many misses, and media.
const std::vector<std::string>& classNames() {
  static const std::vector<std::string> kClasses = {"gcc", "mcf", "djpeg"};
  return kClasses;
}

/// Instructions per class and run. Large enough that a run's host time is
/// dominated by simulation, small enough that an iteration takes well under
/// a second: a run then holds dozens of iterations, and its low percentile
/// comes from the host's quiet moments.
constexpr std::uint64_t kSynthInstructions = 300'000;
constexpr std::uint64_t kReplayInstructions = 300'000;
/// Replay checkpoints: snapshots at 90k, 180k and 270k instructions. The
/// interval must not divide the stream, or the core could also snapshot at
/// its very end and the resumed run would have nothing left to retire.
constexpr std::uint64_t kReplayCkptEvery = 90'000;
static_assert(kReplayInstructions % kReplayCkptEvery != 0);
/// Where the resumed replay starts: the last snapshot.
constexpr std::uint64_t kReplayLastCkpt =
    kReplayInstructions / kReplayCkptEvery * kReplayCkptEvery;
/// Store load+query samples per fig4a iteration: over a run's iterations
/// this leaves far more than ten samples beyond the 90th percentile.
constexpr int kQueriesPerIteration = 100;

class Stopwatch {
 public:
  [[nodiscard]] std::int64_t wallNs() const { return hostNowNs() - wall0_; }
  [[nodiscard]] double wallS() const {
    return static_cast<double>(wallNs()) * 1e-9;
  }
  [[nodiscard]] double cpuS() const { return processCpuSeconds() - cpu0_; }

 private:
  std::int64_t wall0_ = hostNowNs();
  double cpu0_ = processCpuSeconds();
};

std::uint64_t digestOf(const std::vector<sim::RunOutput>& outs) {
  std::uint64_t h = malec::binio::kFnvOffset;
  for (const sim::RunOutput& o : outs) {
    const std::vector<std::uint8_t> blob = malec::sweep::encodeRunOutput(o);
    h = malec::binio::fnv1a(h, blob.data(), blob.size());
  }
  return h;
}

std::uint64_t retired(const std::vector<sim::RunOutput>& outs) {
  std::uint64_t n = 0;
  for (const sim::RunOutput& o : outs) n += o.instructions;
  return n;
}

/// Hold every traced output against the runOne output of the same config.
void expectIdentical(const std::vector<sim::RunOutput>& traced,
                     const std::vector<sim::RunOutput>& refs,
                     Checks& checks) {
  checks.expect(traced.size() == refs.size(),
                "traced run count differs from the measured run count");
  for (std::size_t i = 0; i < std::min(traced.size(), refs.size()); ++i) {
    const std::string diff = sim::diffOutputs(traced[i], refs[i]);
    checks.expect(diff.empty(), "traced " + refs[i].benchmark + "/" +
                                    refs[i].config + " differs from runOne: " +
                                    diff.substr(0, 200));
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Per-layer metrics of one traced iteration. `classes[i]` labels
/// `outs[i]`, whose run took `cell_ns[i]`; `pool_ns` is the wall time of
/// the loop or pool that executed the runs on `jobs` threads.
std::map<std::string, double> layerMetrics(
    const LayerCounters& lc, const std::vector<sim::RunOutput>& outs,
    const std::vector<std::string>& classes,
    const std::vector<std::int64_t>& cell_ns, unsigned jobs,
    std::int64_t pool_ns) {
  constexpr double kS = 1e-9;
  std::map<std::string, double> m;
  const auto d = [](auto v) { return static_cast<double>(v); };

  m["trace.next_s"] = d(lc.next_ns) * kS;
  m["trace.next_calls"] = d(lc.next_calls);
  m["trace.ns_per_next"] = ratio(d(lc.next_ns), d(lc.next_calls));

  const std::int64_t child_ns = lc.next_ns + lc.begin_cycle_ns +
                                lc.submit_ns + lc.end_cycle_ns + lc.drain_ns +
                                lc.ckpt_save_ns + lc.ckpt_write_ns;
  m["cpu.self_s"] = d(lc.core_run_ns - child_ns) * kS;
  malec::core::InterfaceStats ifc;
  std::uint64_t cycles = 0, instructions = 0, rob_full = 0, disp_stall = 0,
                lq_stall = 0;
  double events = 0.0;
  for (const sim::RunOutput& o : outs) {
    cycles += o.core.cycles;
    instructions += o.core.instructions;
    rob_full += o.core.rob_full_cycles;
    disp_stall += o.core.dispatch_stall_cycles;
    lq_stall += o.core.lq_stall_cycles;
    for (const auto field : malec::core::kInterfaceCounterFields)
      ifc.*field += o.ifc.*field;
    for (const auto& [name, value] : o.energy_detail.all())
      if (name.rfind("count.", 0) == 0) events += value;
  }
  m["cpu.cycles"] = d(cycles);
  m["cpu.ipc"] = ratio(d(instructions), d(cycles));
  m["cpu.rob_full_cycles"] = d(rob_full);
  m["cpu.dispatch_stall_cycles"] = d(disp_stall);
  m["cpu.lq_stall_cycles"] = d(lq_stall);

  m["core.begin_cycle_s"] = d(lc.begin_cycle_ns) * kS;
  m["core.submit_s"] = d(lc.submit_ns) * kS;
  m["core.end_cycle_s"] = d(lc.end_cycle_ns) * kS;
  m["core.drain_s"] = d(lc.drain_ns) * kS;
  m["core.end_cycle_calls"] = d(lc.end_cycle_calls);
  m["core.submit_calls"] = d(lc.submit_calls);
  m["core.submit_rejects"] = d(lc.submit_rejects);
  m["core.submit_accept_ratio"] =
      ratio(d(lc.submit_calls), d(lc.submit_calls + lc.submit_rejects));
  m["core.groups"] = d(ifc.groups);
  m["core.entries_per_group"] = ratio(d(ifc.group_entries), d(ifc.groups));
  m["core.merged_loads"] = d(ifc.merged_loads);
  m["core.ib_hold_events"] = d(ifc.ib_hold_events);
  m["core.bank_conflicts"] = d(ifc.bank_conflicts);
  m["core.port_conflicts"] = d(ifc.port_conflicts);
  m["core.way_lookups"] = d(ifc.way_lookups);
  m["core.way_coverage"] = ifc.wayCoverage();
  m["core.load_l1_accesses"] = d(ifc.load_l1_accesses);
  m["core.load_l1_miss_rate"] =
      ratio(d(ifc.load_l1_misses), d(ifc.load_l1_accesses));
  m["core.sb_forwards"] = d(ifc.sb_forwards);

  m["energy.events"] = events;
  m["energy.report_s"] = d(lc.report_ns) * kS;

  m["sim.build_s"] = d(lc.build_ns) * kS;
  m["sim.runs"] = d(lc.runs);
  std::vector<double> cells;
  double busy_ns = 0.0;
  for (const std::string& cls : classNames()) {
    double cls_instr = 0.0, cls_ns = 0.0;
    for (std::size_t i = 0; i < outs.size(); ++i) {
      if (classes[i] != cls) continue;
      cls_instr += d(outs[i].instructions);
      cls_ns += d(cell_ns[i]);
    }
    m["sim.mips." + cls] = ratio(cls_instr * 1e3, cls_ns);
  }
  for (const std::int64_t ns : cell_ns) {
    cells.push_back(d(ns) * kS);
    busy_ns += d(ns);
  }
  m["sim.cell_s_p50"] = median(cells);
  m["sim.cell_s_max"] =
      cells.empty() ? 0.0 : *std::max_element(cells.begin(), cells.end());
  m["sim.pool_busy_frac"] = ratio(busy_ns, d(jobs) * d(pool_ns));

  m["ckpt.saves"] = d(lc.ckpt_saves);
  m["ckpt.save_s"] = d(lc.ckpt_save_ns) * kS;
  m["ckpt.write_s"] = d(lc.ckpt_write_ns) * kS;
  m["ckpt.bytes"] = d(lc.ckpt_bytes);
  m["ckpt.restore_s"] = d(lc.ckpt_restore_ns) * kS;

  for (const char* k : {"store.sink_s", "store.save_s", "store.bytes",
                        "store.load_s", "store.query_s"})
    m[k] = 0.0;
  return m;
}

/// Outputs, per-run host times and boundary counters of traced runs.
struct TracedBatch {
  std::vector<sim::RunOutput> outs;
  std::vector<std::int64_t> cell_ns;
  LayerCounters lc;
};

sim::RunOutput timedTracedRun(const sim::RunConfig& rc, TracedBatch& b,
                              const TracedCkpt& ck = {}) {
  const std::int64_t t = hostNowNs();
  sim::RunOutput out = tracedRun(rc, b.lc, ck);
  b.cell_ns.push_back(hostNowNs() - t);
  return out;
}

sim::RunConfig makeRun(const malec::trace::WorkloadProfile& wl,
                       const malec::core::InterfaceConfig& cfg,
                       std::uint64_t instructions, std::uint64_t seed) {
  sim::RunConfig rc;
  rc.workload = wl;
  rc.interface_cfg = cfg;
  rc.system = sim::defaultSystem();
  rc.instructions = instructions;
  rc.seed = seed;
  return rc;
}

// --- malec_synth ------------------------------------------------------------

/// MALEC over the synthetic gcc/mcf/djpeg generators: the generator and
/// MALEC's grouping, arbitration and way determination do the work.
class MalecSynth final : public Workload {
 public:
  explicit MalecSynth(std::uint64_t seed) : seed_(seed) {}

  void setUp() override {
    const malec::core::InterfaceConfig cfg =
        sim::presetRegistry().get("MALEC")();
    for (const std::string& cls : classNames())
      rcs_.push_back(makeRun(sim::workloadRegistry().get(cls), cfg,
                             kSynthInstructions, seed_));
  }

  sim::RunConfig firstRun() const override { return rcs_.front(); }

  Iteration runOnce(Checks& checks) override {
    const Stopwatch sw;
    std::vector<sim::RunOutput> outs;
    for (const sim::RunConfig& rc : rcs_) outs.push_back(sim::runOne(rc));
    Iteration it;
    it.wall_s = sw.wallS();
    it.cpu_s = sw.cpuS();
    for (std::size_t i = 0; i < outs.size(); ++i)
      checks.expect(outs[i].instructions == rcs_[i].instructions,
                    rcs_[i].workload.name + " retired a short stream");
    it.instructions = retired(outs);
    it.digest = digestOf(outs);
    refs_ = std::move(outs);
    return it;
  }

  TracedIteration runTraced(Checks& checks) override {
    const Stopwatch sw;
    TracedBatch b;
    for (const sim::RunConfig& rc : rcs_)
      b.outs.push_back(timedTracedRun(rc, b));
    TracedIteration it;
    it.wall_s = sw.wallS();
    expectIdentical(b.outs, refs_, checks);
    it.layers =
        layerMetrics(b.lc, b.outs, classNames(), b.cell_ns, 1, sw.wallNs());
    it.digest = digestOf(b.outs);
    return it;
  }

 private:
  std::uint64_t seed_;
  std::vector<sim::RunConfig> rcs_;
  std::vector<sim::RunOutput> refs_;
};

// --- baseline_replay --------------------------------------------------------

/// The same three streams captured to .mtrace files and replayed under
/// both baselines, with one replay checkpointed and resumed: no generator
/// and no MALEC machinery, so changes to either must leave it flat.
class BaselineReplay final : public Workload {
 public:
  BaselineReplay(std::uint64_t seed, std::string workdir)
      : seed_(seed), workdir_(std::move(workdir)) {}

  void setUp() override {
    const std::vector<malec::core::InterfaceConfig> presets = {
        sim::presetRegistry().get("Base2ld1st")(),
        sim::presetRegistry().get("Base1ldst")()};
    for (const std::string& cls : classNames()) {
      const std::string path = workdir_ + "/" + cls + ".mtrace";
      const sim::RunConfig capture =
          makeRun(sim::workloadRegistry().get(cls), presets[0],
                  kReplayInstructions, seed_);
      (void)sim::captureTrace(capture, path);
      const malec::trace::WorkloadProfile replay = sim::traceWorkload(path);
      for (const auto& cfg : presets) {
        rcs_.push_back(makeRun(replay, cfg, 0, seed_));
        classes_.push_back(cls);
      }
    }
    ckpt_path_ = workdir_ + "/replay.mckpt";
    rcs_.front().ckpt_out = ckpt_path_;
    rcs_.front().ckpt_every = kReplayCkptEvery;
    resume_ = rcs_.front();
    resume_.ckpt_out.clear();
    resume_.ckpt_every = 0;
    resume_.start_ckpt = ckpt_path_;
  }

  sim::RunConfig firstRun() const override { return rcs_.front(); }

  Iteration runOnce(Checks& checks) override {
    std::filesystem::remove(ckpt_path_);
    const Stopwatch sw;
    std::vector<sim::RunOutput> outs;
    for (const sim::RunConfig& rc : rcs_) outs.push_back(sim::runOne(rc));
    outs.push_back(sim::runOne(resume_));
    Iteration it;
    it.wall_s = sw.wallS();
    it.cpu_s = sw.cpuS();
    for (std::size_t i = 0; i < rcs_.size(); ++i)
      checks.expect(outs[i].instructions == kReplayInstructions,
                    rcs_[i].workload.name + " replay retired a short stream");
    const std::string diff = sim::diffOutputs(outs.back(), outs.front());
    checks.expect(diff.empty(),
                  "resumed replay differs from the straight-through one: " +
                      diff.substr(0, 200));
    // The resumed run reports the whole stream but retires only what follows
    // its last checkpoint, to within one commit group.
    it.instructions = retired(outs) - outs.back().instructions +
                      (kReplayInstructions - kReplayLastCkpt);
    it.digest = digestOf(outs);
    refs_ = std::move(outs);
    return it;
  }

  TracedIteration runTraced(Checks& checks) override {
    const std::string path = workdir_ + "/traced.mckpt";
    std::filesystem::remove(path);
    const Stopwatch sw;
    TracedBatch b;
    for (std::size_t i = 0; i < rcs_.size(); ++i) {
      TracedCkpt ck;
      if (i == 0) {
        ck.save_path = path;
        ck.save_every = kReplayCkptEvery;
      }
      b.outs.push_back(timedTracedRun(rcs_[i], b, ck));
    }
    TracedCkpt resume;
    resume.restore_path = path;
    b.outs.push_back(timedTracedRun(resume_, b, resume));
    TracedIteration it;
    it.wall_s = sw.wallS();
    expectIdentical(b.outs, refs_, checks);
    // The resumed run reports its whole stream's counters: keep it out of
    // the per-class rates.
    std::vector<std::string> classes = classes_;
    classes.push_back("resumed");
    it.layers = layerMetrics(b.lc, b.outs, classes, b.cell_ns, 1, sw.wallNs());
    it.digest = digestOf(b.outs);
    return it;
  }

 private:
  std::uint64_t seed_;
  std::string workdir_;
  std::string ckpt_path_;
  std::vector<sim::RunConfig> rcs_;
  std::vector<std::string> classes_;
  sim::RunConfig resume_;
  std::vector<sim::RunOutput> refs_;
};

// --- fig4a_sweep ------------------------------------------------------------

/// Records every run result and the fig4a time table of a suite run.
class Collector final : public sim::ResultSink {
 public:
  void runResult(const sim::RunRecord& rec) override {
    names.emplace_back(rec.workload, rec.config);
    outs.push_back(rec.out);
  }
  void table(const sim::Table& t, const std::string& name, int) override {
    if (name == "fig4a_time") time_table = t;
  }

  std::vector<std::pair<std::string, std::string>> names;
  std::vector<sim::RunOutput> outs;
  std::optional<sim::Table> time_table;
};

const std::vector<store::QueryOptions>& storeQueries() {
  static const std::vector<store::QueryOptions> kQueries = [] {
    std::vector<store::QueryOptions> qs(4);
    qs[0].group_geomean = true;  // the Fig. 4 view: geomean per preset
    qs[1].workload_contains = "gcc";
    qs[2].config_contains = "MALEC";
    qs[2].sort_by = "ipc";
    qs[2].sort_desc = true;
    qs[2].limit = 10;
    qs[3].select = {"workload", "config", "cycles"};
    qs[3].sort_by = "cycles";
    return qs;
  }();
  return kQueries;
}

/// The registered fig4a grid through runSuite on every core, landing in a
/// table sink and a .mstore, then a batch of store load + query calls.
class Fig4aSweep final : public Workload {
 public:
  Fig4aSweep(std::uint64_t seed, unsigned jobs, const std::string& workdir)
      : store_path_(workdir + "/fig4a.mstore") {
    opts_.seed = seed;
    opts_.jobs = jobs;
    opts_.progress = false;
  }

  void setUp() override {
    spec_ = &sim::specRegistry().get("fig4a");
    // An explicit budget: the MALEC_INSTR knob must not change the workload.
    opts_.instructions = spec_->default_instructions;
    ctx_ = std::make_unique<sim::SuiteContext>(*spec_, opts_);
    sim::resolveSuiteContext(*ctx_);
  }

  sim::RunConfig firstRun() const override {
    return makeRun(ctx_->workloads.front(), ctx_->configs.front(),
                   ctx_->instructions, ctx_->seed);
  }

  Iteration runOnce(Checks& checks) override {
    std::filesystem::remove(store_path_);
    Collector col;
    std::string table_lines;
    sim::JsonLinesSink tables(&table_lines);
    store::StoreSink store_sink(store_path_);
    const Stopwatch sw;
    sim::runSuite(*spec_, opts_, {&tables, &store_sink, &col});
    const QueryBatch qb = runQueries();
    Iteration it;
    it.wall_s = sw.wallS();
    it.cpu_s = sw.cpuS();
    it.query_ms = qb.sample_ms;
    qb.check(checks);
    checkStore(col, checks);
    it.instructions = retired(col.outs);
    it.digest = digestOf(col.outs);
    if (col.time_table) time_table_ = col.time_table;
    refs_ = std::move(col.outs);
    return it;
  }

  TracedIteration runTraced(Checks& checks) override {
    std::filesystem::remove(store_path_);
    Collector col;
    std::string table_lines;
    sim::JsonLinesSink tables(&table_lines);
    store::StoreSink store_sink(store_path_);
    TimedSink timed_store(store_sink);
    const Stopwatch sw;

    // runSuite's steps, with the grid executed on decorated stacks.
    sim::SuiteContext ctx{*spec_, opts_};
    sim::resolveSuiteContext(ctx);
    ctx.sinks = {&tables, &timed_store, &col};
    const sim::SuiteInfo info = sim::suiteInfo(ctx);
    for (sim::ResultSink* s : ctx.sinks) s->beginSuite(info);
    const std::int64_t pool_t0 = hostNowNs();
    const TracedBatch grid = runGrid(ctx);
    const std::int64_t pool_ns = hostNowNs() - pool_t0;
    const std::size_t n_cfg = ctx.configs.size();
    ctx.results.resize(ctx.workloads.size());
    for (std::size_t i = 0; i < grid.outs.size(); ++i)
      ctx.results[i / n_cfg].push_back(grid.outs[i]);
    sim::emitRunResults(ctx);
    sim::emitSuiteTables(ctx);
    for (sim::ResultSink* s : ctx.sinks) s->endSuite();

    const QueryBatch qb = runQueries();
    TracedIteration it;
    it.wall_s = sw.wallS();
    qb.check(checks);
    checkStore(col, checks);
    expectIdentical(grid.outs, refs_, checks);

    std::vector<std::string> classes;
    for (const auto& wl : ctx.workloads)
      for (std::size_t c = 0; c < n_cfg; ++c) classes.push_back(wl.name);
    it.layers = layerMetrics(grid.lc, grid.outs, classes, grid.cell_ns,
                             ctx.jobs, pool_ns);
    constexpr double kS = 1e-9;
    it.layers["store.sink_s"] =
        static_cast<double>(timed_store.runResultNs()) * kS;
    it.layers["store.save_s"] =
        static_cast<double>(timed_store.endSuiteNs()) * kS;
    it.layers["store.bytes"] =
        static_cast<double>(std::filesystem::file_size(store_path_));
    it.layers["store.load_s"] = static_cast<double>(qb.load_ns) * kS;
    it.layers["store.query_s"] = static_cast<double>(qb.query_ns) * kS;
    it.digest = digestOf(col.outs);
    return it;
  }

  std::map<std::string, double> modelNumbers() const override {
    std::map<std::string, double> m;
    if (!time_table_) return m;
    const std::vector<std::string>& cols = time_table_->columns();
    for (const auto& row : time_table_->rows()) {
      if (row.label != "geo.mean Overall") continue;
      for (std::size_t c = 0; c < cols.size(); ++c) {
        if (cols[c] == "MALEC")
          m["model.fig4a_malec_norm_time"] = row.values[c];
        if (cols[c] == "Base2ld1st")
          m["model.fig4a_base2ld1st_norm_time"] = row.values[c];
      }
    }
    return m;
  }

  unsigned threads() const override { return opts_.jobs; }

 private:
  struct QueryBatch {
    std::vector<double> sample_ms;  ///< one load + query each
    std::int64_t load_ns = 0;
    std::int64_t query_ns = 0;
    int empty = 0;  ///< loads that failed or queries without rows

    void check(Checks& checks) const {
      checks.expect(empty == 0, std::to_string(empty) +
                                    " store queries failed or came back "
                                    "empty");
    }
  };

  /// kQueriesPerIteration in-process loads of the store, each followed by
  /// one query of the storeQueries() rotation.
  QueryBatch runQueries() const {
    const auto& qs = storeQueries();
    QueryBatch b;
    for (int q = 0; q < kQueriesPerIteration; ++q) {
      const std::int64_t t0 = hostNowNs();
      store::ResultStore rs;
      std::string err;
      const bool ok = rs.load(store_path_, err);
      const std::int64_t t1 = hostNowNs();
      if (!ok || store::runQuery(rs, qs[static_cast<std::size_t>(q) %
                                        qs.size()])
                     .rows.empty())
        ++b.empty;
      const std::int64_t t2 = hostNowNs();
      b.load_ns += t1 - t0;
      b.query_ns += t2 - t1;
      b.sample_ms.push_back(static_cast<double>(t2 - t0) * 1e-6);
    }
    return b;
  }

  /// runMatrixParallel's work-stealing pool over traced runs: one counter
  /// set per thread (cache-line aligned, no sharing), merged afterwards.
  static TracedBatch runGrid(const sim::SuiteContext& ctx) {
    std::vector<sim::RunConfig> rcs;
    for (const auto& wl : ctx.workloads)
      for (const auto& cfg : ctx.configs)
        rcs.push_back(makeRun(wl, cfg, ctx.instructions, ctx.seed));
    struct alignas(64) ThreadCounters {
      LayerCounters lc;
    };
    const unsigned n_threads = static_cast<unsigned>(
        std::min<std::size_t>(std::max(1u, ctx.jobs), rcs.size()));
    std::vector<ThreadCounters> per_thread(n_threads);
    TracedBatch b;
    b.outs.resize(rcs.size());
    b.cell_ns.assign(rcs.size(), 0);
    std::atomic<std::size_t> next{0};
    auto worker = [&](unsigned t) {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= rcs.size()) return;
        const std::int64_t t0 = hostNowNs();
        b.outs[i] = tracedRun(rcs[i], per_thread[t].lc);
        b.cell_ns[i] = hostNowNs() - t0;
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(n_threads);
    for (unsigned t = 0; t < n_threads; ++t) pool.emplace_back(worker, t);
    for (std::thread& th : pool) th.join();
    for (const ThreadCounters& tc : per_thread) b.lc.add(tc.lc);
    return b;
  }

  /// The reloaded store must hold exactly the grid's rows, each with the
  /// cycles and IPC of the matching runResult() output.
  void checkStore(const Collector& col, Checks& checks) const {
    store::ResultStore rs;
    std::string err;
    const bool ok = rs.load(store_path_, err);
    checks.expect(ok, "fig4a store does not reload: " + err);
    if (!ok) return;
    const std::size_t expected = ctx_->workloads.size() * ctx_->configs.size();
    checks.expect(rs.runs().size() == expected && col.outs.size() == expected,
                  "store holds " + std::to_string(rs.runs().size()) +
                      " rows, the suite emitted " +
                      std::to_string(col.outs.size()) + ", the grid has " +
                      std::to_string(expected));
    for (std::size_t i = 0; i < std::min(rs.runs().size(), col.outs.size());
         ++i) {
      const store::StoreRun& row = rs.runs()[i];
      const sim::RunOutput& o = col.outs[i];
      checks.expect(row.workload == col.names[i].first &&
                        row.config == col.names[i].second &&
                        row.cycles == o.cycles && row.ipc == o.ipc,
                    "store row " + std::to_string(i) + " (" + row.workload +
                        "/" + row.config + ") disagrees with its run");
    }
  }

  std::string store_path_;
  sim::SuiteOptions opts_;
  const sim::ExperimentSpec* spec_ = nullptr;
  std::unique_ptr<sim::SuiteContext> ctx_;
  std::optional<sim::Table> time_table_;
  std::vector<sim::RunOutput> refs_;
};

}  // namespace

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed, unsigned jobs,
                                       const std::string& workdir) {
  if (name == "malec_synth") return std::make_unique<MalecSynth>(seed);
  if (name == "baseline_replay")
    return std::make_unique<BaselineReplay>(seed, workdir);
  if (name == "fig4a_sweep")
    return std::make_unique<Fig4aSweep>(seed, jobs, workdir);
  return nullptr;
}

}  // namespace perfbench
