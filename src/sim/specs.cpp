// Builtin experiment-spec registrations: every figure/table reproduction
// is a declarative spec here — workload set, configuration set, metric
// columns, normalisation rule and paper anchors. `malec_bench --suite
// <name>` drives any spec by name.
#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "energy/array_model.h"
#include "energy/energy_account.h"
#include "mem/cache.h"
#include "phase/sample_plan.h"
#include "sim/presets.h"
#include "sim/structures.h"
#include "sim/suite.h"
#include "trace/locality_analyzer.h"
#include "trace/synth_generator.h"
#include "trace/workloads.h"
#include "waydet/segmented_wt.h"
#include "waydet/way_table.h"

namespace malec::sim {
namespace {

std::string strf(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

using RowFn =
    std::function<std::vector<double>(const SuiteContext&, std::size_t)>;

/// Row rule: cycles of every configuration as a percentage of the
/// configuration at `ref` (the normalisation used by Fig. 4a and all the
/// sensitivity sweeps).
RowFn cyclesVsRefFn(std::size_t ref) {
  return [ref](const SuiteContext& ctx, std::size_t w) {
    const auto& outs = ctx.results[w];
    const double base = static_cast<double>(outs[ref].cycles);
    std::vector<double> row;
    row.reserve(outs.size());
    for (const auto& o : outs)
      row.push_back(100.0 * static_cast<double>(o.cycles) / base);
    return row;
  };
}

// --- Fig. 4a ----------------------------------------------------------------

ExperimentSpec specFig4a() {
  ExperimentSpec s;
  s.name = "fig4a";
  s.title = "Fig. 4a — normalized execution time per benchmark";
  s.paper_anchor =
      "Paper: MALEC 86 / MALEC_3cyc 90 / Base2ld1st 85 / "
      "Base2ld1st_1cyc 80 (overall geo.means)";
  s.configs = &fig4Configs;
  s.default_instructions = 120'000;
  TableSpec t;
  t.name = "fig4a_time";
  t.title = "Fig. 4a — normalized execution time [%] (Base1ldst = 100)";
  t.row = cyclesVsRefFn(0);
  t.suite_geomeans = true;
  t.overall_geomean = true;
  t.overall_label = "geo.mean Overall";
  s.tables.push_back(std::move(t));
  return s;
}

// --- Fig. 4b ----------------------------------------------------------------

ExperimentSpec specFig4b() {
  ExperimentSpec s;
  s.name = "fig4b";
  s.title = "Fig. 4b — normalized dynamic and total L1 energy";
  s.paper_anchor =
      "Paper: dynamic — Base2ld1st 142, MALEC 67; "
      "total — Base2ld1st 148, MALEC 78 (overall)";
  s.configs = &fig4Configs;
  s.default_instructions = 120'000;
  TableSpec td;
  td.name = "fig4b_dynamic";
  td.title = "Fig. 4b — normalized dynamic energy [%] (Base1ldst = 100)";
  td.row = [](const SuiteContext& ctx, std::size_t w) {
    const auto& outs = ctx.results[w];
    std::vector<double> row;
    for (const auto& o : outs)
      row.push_back(100.0 * o.dynamic_pj / outs[0].dynamic_pj);
    return row;
  };
  td.suite_geomeans = true;
  td.overall_geomean = true;
  td.overall_label = "geo.mean Overall";
  s.tables.push_back(std::move(td));
  TableSpec tt;
  tt.name = "fig4b_total";
  tt.title = "Fig. 4b — normalized total energy [%] (dynamic + leakage)";
  tt.row = [](const SuiteContext& ctx, std::size_t w) {
    const auto& outs = ctx.results[w];
    std::vector<double> row;
    for (const auto& o : outs)
      row.push_back(100.0 * o.total_pj / outs[0].total_pj);
    return row;
  };
  tt.suite_geomeans = true;
  tt.overall_geomean = true;
  tt.overall_label = "geo.mean Overall";
  s.tables.push_back(std::move(tt));
  return s;
}

// --- Sec. VI-C: WDU vs Way Tables -------------------------------------------

ExperimentSpec specWduVsWt() {
  ExperimentSpec s;
  s.name = "wdu_vs_wt";
  s.title = "Sec. VI-C — WDU (8/16/32 entries) vs Way Tables";
  s.paper_anchor =
      "Paper: coverage 94 (WT) vs 68/76/78 (WDU 8/16/32); energy "
      "+4/+5/+8% for the WDU variants";
  s.configs = [] {
    return std::vector<core::InterfaceConfig>{
        presetMalec(), presetMalecWdu(8), presetMalecWdu(16),
        presetMalecWdu(32)};
  };
  s.default_instructions = 100'000;
  TableSpec tc;
  tc.name = "wdu_coverage";
  tc.title = "Way-determination coverage [%]";
  tc.columns = {"WT", "WDU8", "WDU16", "WDU32"};
  tc.row = [](const SuiteContext& ctx, std::size_t w) {
    std::vector<double> row;
    for (const auto& o : ctx.results[w])
      row.push_back(100.0 * o.way_coverage);
    return row;
  };
  tc.overall_geomean = true;
  s.tables.push_back(std::move(tc));
  TableSpec te;
  te.name = "wdu_energy";
  te.title = "Total energy relative to MALEC with Way Tables [%]";
  te.columns = {"WT", "WDU8", "WDU16", "WDU32"};
  te.row = [](const SuiteContext& ctx, std::size_t w) {
    const auto& outs = ctx.results[w];
    std::vector<double> row;
    for (const auto& o : outs)
      row.push_back(100.0 * o.total_pj / outs[0].total_pj);
    return row;
  };
  te.overall_geomean = true;
  s.tables.push_back(std::move(te));
  return s;
}

// --- Sec. V: last-entry-register feedback ablation --------------------------

ExperimentSpec specCoverageAblation() {
  ExperimentSpec s;
  s.name = "coverage_ablation";
  s.title = "Sec. V — WT coverage without/with last-entry feedback";
  s.paper_anchor =
      "Paper: 75% coverage without the update mechanism, 94% with it";
  s.configs = [] {
    return std::vector<core::InterfaceConfig>{presetMalecNoFeedback(),
                                              presetMalec()};
  };
  s.default_instructions = 100'000;
  TableSpec t;
  t.name = "coverage_ablation";
  t.title = "WT coverage [%] without / with last-entry feedback";
  t.columns = {"no feedback", "feedback", "energy no-fb %"};
  t.row = [](const SuiteContext& ctx, std::size_t w) {
    const auto& outs = ctx.results[w];
    return std::vector<double>{100.0 * outs[0].way_coverage,
                               100.0 * outs[1].way_coverage,
                               100.0 * outs[0].total_pj / outs[1].total_pj};
  };
  t.overall_geomean = true;
  s.tables.push_back(std::move(t));
  return s;
}

// --- Sec. VI-B: merged-load contribution ------------------------------------

ExperimentSpec specMergeContribution() {
  ExperimentSpec s;
  s.name = "merge_contribution";
  s.title = "Sec. VI-B — merged-load contribution to MALEC's speedup";
  s.paper_anchor =
      "Paper: merging contributes ~21% of MALEC's speedup on "
      "average (gap 56%, equake 66%, mgrid <2%)";
  s.configs = [] {
    return std::vector<core::InterfaceConfig>{
        presetBase1ldst(), presetMalec(), presetMalecNoMerge()};
  };
  s.default_instructions = 100'000;
  TableSpec t;
  t.name = "merge_contribution";
  t.title = "Merged-load contribution to MALEC's speedup";
  t.columns = {"speedup %", "speedup noMerge %", "merge contrib %",
               "merged loads %", "dynE noMerge/merge %"};
  t.row = [](const SuiteContext& ctx, std::size_t w) {
    const auto& outs = ctx.results[w];
    const double base = static_cast<double>(outs[0].cycles);
    const double sp_full = base / static_cast<double>(outs[1].cycles) - 1.0;
    const double sp_nomerge =
        base / static_cast<double>(outs[2].cycles) - 1.0;
    const double contrib =
        sp_full > 1e-9 ? 100.0 * (sp_full - sp_nomerge) / sp_full : 0.0;
    return std::vector<double>{
        100.0 * sp_full, 100.0 * sp_nomerge,
        std::max(0.0, std::min(100.0, contrib)) + 1e-6,
        100.0 * outs[1].merged_load_fraction + 1e-6,
        100.0 * outs[2].dynamic_pj / outs[1].dynamic_pj};
  };
  s.tables.push_back(std::move(t));
  return s;
}

// --- Sec. IV: arbitration (merge) window ------------------------------------

ExperimentSpec specArbitrationWindow() {
  ExperimentSpec s;
  s.name = "arbitration_window";
  s.title = "Sec. IV — merge-comparison window sweep";
  s.paper_anchor = "Paper: window=3 within 0.5% of unrestricted comparison";
  // One benchmark per behaviour class keeps the sweep fast; the paper's
  // claim is an average.
  s.workloads = {"gcc", "gap", "equake", "mgrid", "mcf", "djpeg", "h264enc"};
  s.configs = [] {
    std::vector<core::InterfaceConfig> cfgs;
    for (std::uint32_t w : {0u, 1u, 2u, 3u, 5u, 7u}) {
      core::InterfaceConfig c = presetMalec();
      c.merge_window = w;
      c.name = "win" + std::to_string(w);
      cfgs.push_back(std::move(c));
    }
    return cfgs;
  };
  s.default_instructions = 80'000;
  TableSpec t;
  t.name = "arbitration_window";
  t.title = "Execution time [%] vs merge window (win7 = 100)";
  t.row = cyclesVsRefFn(5);
  t.overall_geomean = true;
  t.precision = 2;
  s.tables.push_back(std::move(t));
  return s;
}

// --- Sec. VI-D sensitivity sweeps (six specs, one per table) ----------------

const std::vector<std::string>& sensitivityPicks() {
  static const std::vector<std::string> picks = {"gcc", "gap", "mcf",
                                                 "djpeg", "swim"};
  return picks;
}

ExperimentSpec specSensitivityLatency() {
  ExperimentSpec s;
  s.name = "sensitivity_latency";
  s.title = "Sec. VI-D — L1 latency sweep (MALEC vs Base2ld1st)";
  s.workloads = sensitivityPicks();
  s.configs = [] {
    std::vector<core::InterfaceConfig> cfgs;
    for (Cycle lat : {1u, 2u, 3u}) {
      core::InterfaceConfig m = presetMalec();
      m.l1_latency = lat;
      m.name = "MALEC_" + std::to_string(lat) + "cyc";
      cfgs.push_back(std::move(m));
      core::InterfaceConfig b = presetBase2ld1st();
      b.l1_latency = lat;
      b.name = "Base2_" + std::to_string(lat) + "cyc";
      cfgs.push_back(std::move(b));
    }
    return cfgs;
  };
  s.default_instructions = 80'000;
  TableSpec t;
  t.name = "sensitivity_latency";
  t.title = "Execution time [%] vs L1 latency (MALEC_2cyc = 100)";
  t.row = cyclesVsRefFn(2);
  t.overall_geomean = true;
  s.tables.push_back(std::move(t));
  return s;
}

ExperimentSpec specSensitivityCarry() {
  ExperimentSpec s;
  s.name = "sensitivity_carry";
  s.title = "Sec. VI-D — Input Buffer carry-slot sweep";
  s.workloads = sensitivityPicks();
  s.configs = [] {
    std::vector<core::InterfaceConfig> cfgs;
    for (std::uint32_t carry : {0u, 1u, 2u, 4u, 8u}) {
      core::InterfaceConfig m = presetMalec();
      m.ib_carry_slots = carry;
      m.name = "carry" + std::to_string(carry);
      cfgs.push_back(std::move(m));
    }
    return cfgs;
  };
  s.default_instructions = 80'000;
  TableSpec t;
  t.name = "sensitivity_carry";
  t.title =
      "Execution time [%] vs Input Buffer carry slots (carry2 = 100)";
  t.row = cyclesVsRefFn(2);
  t.overall_geomean = true;
  s.tables.push_back(std::move(t));
  return s;
}

ExperimentSpec specSensitivityBuses() {
  ExperimentSpec s;
  s.name = "sensitivity_buses";
  s.title = "Sec. VI-D — result-bus sweep";
  s.workloads = sensitivityPicks();
  s.configs = [] {
    std::vector<core::InterfaceConfig> cfgs;
    for (std::uint32_t buses : {1u, 2u, 3u, 4u}) {
      core::InterfaceConfig m = presetMalec();
      m.result_buses = buses;
      m.name = "bus" + std::to_string(buses);
      cfgs.push_back(std::move(m));
    }
    return cfgs;
  };
  s.default_instructions = 80'000;
  TableSpec t;
  t.name = "sensitivity_buses";
  t.title = "Execution time [%] vs result buses (bus3 = 100)";
  t.row = cyclesVsRefFn(2);
  t.overall_geomean = true;
  s.tables.push_back(std::move(t));
  return s;
}

ExperimentSpec specSensitivityWaydet() {
  ExperimentSpec s;
  s.name = "sensitivity_waydet";
  s.title = "Sec. VI-D — way-determination benefit on streaming workloads";
  s.paper_anchor =
      "(ratios < 100 mean way determination loses energy — "
      "expected for streaming mcf/swim, paper VI-D)";
  s.workloads = sensitivityPicks();
  s.configs = [] {
    return std::vector<core::InterfaceConfig>{presetMalec(),
                                              presetMalecNoWaydet()};
  };
  s.default_instructions = 80'000;
  TableSpec t;
  t.name = "sensitivity_waydet";
  t.title = "Way-table energy benefit [%] (MALEC_noWayDet / MALEC)";
  t.columns = {"dyn ratio %", "coverage %"};
  t.row = [](const SuiteContext& ctx, std::size_t w) {
    const auto& outs = ctx.results[w];
    return std::vector<double>{
        100.0 * outs[1].dynamic_pj / outs[0].dynamic_pj,
        100.0 * outs[0].way_coverage};
  };
  s.tables.push_back(std::move(t));
  return s;
}

ExperimentSpec specSensitivityScaling() {
  ExperimentSpec s;
  s.name = "sensitivity_scaling";
  s.title = "Fig. 2a — scaled MALEC configuration (4 ld + 2 st)";
  s.paper_anchor =
      "(Fig. 2a's 4ld+2st MALEC: grouping scales — the energy per\n"
      " WT evaluation is independent of the reference count)";
  s.workloads = sensitivityPicks();
  s.configs = [] {
    return std::vector<core::InterfaceConfig>{
        presetMalec(), presetMalec4ld2st(), presetBase2ld1st()};
  };
  s.default_instructions = 80'000;
  TableSpec t;
  t.name = "sensitivity_scaling";
  t.title = "Scaling: execution time [%] (MALEC 3-AGU = 100)";
  t.columns = {"MALEC", "MALEC_4ld2st", "Base2ld1st"};
  t.row = cyclesVsRefFn(0);
  t.overall_geomean = true;
  s.tables.push_back(std::move(t));
  return s;
}

// --- Fig. 1: page-locality motivation analysis (custom, trace-level) --------

ExperimentSpec specFig1() {
  ExperimentSpec s;
  s.name = "fig1";
  s.title = "Fig. 1 — same-page access locality of the workloads";
  s.default_instructions = 120'000;
  s.seed = 42;  // the locality analysis has always used its own seed
  s.custom = [](SuiteContext& ctx) {
    const AddressLayout layout;
    const std::vector<std::uint32_t> allowances = {0, 1, 2, 3, 4, 8};

    ctx.emitText(
        "Fig. 1 — consecutive accesses to the same page\n"
        "(group-size fractions of all loads, x = allowed intermediate"
        " accesses to a different page)\n\n");

    struct SuiteAcc {
      std::map<std::uint32_t, std::vector<double>> followed;  // x -> values
      std::vector<double> same_line;
      std::vector<double> store_page;
    };
    std::map<std::string, SuiteAcc> suites;
    SuiteAcc overall;

    Table t("Fig.1 bar segments at x=0 (fraction of loads, %)",
            {"grp=1", "grp=2", "grp3-4", "grp5-8", "grp>8", "followed"});

    for (const auto& wl : ctx.workloads) {
      trace::SyntheticTraceGenerator gen(wl, layout, ctx.instructions,
                                         ctx.seed);
      trace::LocalityAnalyzer an(layout, allowances);
      trace::InstrRecord r;
      while (gen.next(r)) an.observe(r);

      const auto groups = an.pageGroups();
      const auto& g0 = groups[0];
      t.addRow(wl.name, {100 * g0.frac_group_1, 100 * g0.frac_group_2,
                         100 * g0.frac_group_3to4, 100 * g0.frac_group_5to8,
                         100 * g0.frac_group_gt8, 100 * g0.frac_followed});

      SuiteAcc& sa = suites[wl.suite];
      for (const auto& g : groups) {
        sa.followed[g.allowed_intermediates].push_back(g.frac_followed);
        overall.followed[g.allowed_intermediates].push_back(g.frac_followed);
      }
      sa.same_line.push_back(an.sameLineFollowedFraction());
      overall.same_line.push_back(an.sameLineFollowedFraction());
      sa.store_page.push_back(an.storeSamePageFollowedFraction());
      overall.store_page.push_back(an.storeSamePageFollowedFraction());
    }
    t.addOverallGeomeanRow("geo. mean");
    ctx.emitTable(t, "fig1_groups", 1);

    auto meanOf = [](const std::vector<double>& v) {
      double sum = 0;
      for (double d : v) sum += d;
      return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
    };
    std::string txt;
    txt += "Loads followed by >=1 same-page load, by allowance x"
           " (arith. mean, %):\n";
    txt += strf("%-14s", "suite");
    for (std::uint32_t x : allowances) txt += strf("  x=%-5u", x);
    txt += "\n";
    for (const auto& suite : trace::suiteNames()) {
      txt += strf("%-14s", suite.c_str());
      for (std::uint32_t x : allowances)
        txt += strf("  %6.1f", 100 * meanOf(suites[suite].followed[x]));
      txt += "\n";
    }
    txt += strf("%-14s", "Overall");
    for (std::uint32_t x : allowances)
      txt += strf("  %6.1f", 100 * meanOf(overall.followed[x]));
    txt += "\n\n";
    txt += "Paper anchors: x=0 ~70%, x=1 ~85%, x=2 ~90%, x=3 ~92%\n";
    txt += strf("Same-line follow rate (paper ~46%%):   %.1f%%\n",
                100 * meanOf(overall.same_line));
    txt += strf("Store same-page follow (higher than loads): %.1f%%\n",
                100 * meanOf(overall.store_page));
    ctx.emitText(txt);
  };
  return s;
}

// --- Table I / Table II methodology dump (custom) ---------------------------

ExperimentSpec specTab1Tab2() {
  ExperimentSpec s;
  s.name = "tab1_tab2";
  s.title = "Tables I & II — configurations, parameters, array inventory";
  s.default_instructions = 40'000;
  s.custom = [](SuiteContext& ctx) {
    const core::SystemConfig sys = defaultSystem();

    auto interfaceRow = [](const core::InterfaceConfig& c) {
      using core::InterfaceKind;
      const char* addr_comp =
          c.kind == InterfaceKind::kBase1LdSt    ? "1 ld/st"
          : c.kind == InterfaceKind::kBase2Ld1St ? "2 ld + 1 st"
                                                 : "1 ld + 2 ld/st";
      const std::string tlb =
          strf("1 rd/wt%s", c.tlbExtraRdPorts() ? " + 2 rd" : "");
      const std::string l1 =
          strf("1 rd/wt%s", c.l1ExtraRdPorts() ? " + 1 rd" : "");
      return strf("%-22s %-16s %-18s %-16s\n", c.name.c_str(), addr_comp,
                  tlb.c_str(), l1.c_str());
    };

    std::string txt;
    txt += "TABLE I — BASIC CONFIGURATIONS\n";
    txt += strf("%-22s %-16s %-18s %-16s\n", "Config", "Addr.Comp./cycle",
                "uTLB/TLB ports", "Cache ports");
    txt += interfaceRow(presetBase1ldst());
    txt += interfaceRow(presetBase2ld1st());
    txt += interfaceRow(presetMalec());

    txt += "\nTABLE II — RELEVANT SIMULATION PARAMETERS\n";
    txt += strf(
        "Processor     single-core out-of-order, %.0f GHz, %u ROB, "
        "%u-wide fetch/dispatch, %u-wide issue\n",
        sys.clock_ghz, sys.rob_entries, sys.fetch_width, sys.issue_width);
    txt += strf(
        "L1 interface  %u TLB, %u uTLB, %u LQ, %u SB, %u MB entries, "
        "%u-bit addresses, %u KByte pages\n",
        sys.tlb_entries, sys.utlb_entries, sys.lq_entries, sys.sb_entries,
        sys.mb_entries, sys.layout.addrBits(),
        sys.layout.pageBytes() / 1024);
    txt += strf(
        "L1 D-cache    %u KByte, %llu cycle latency, %u byte lines, "
        "%u-way set-assoc., %u banks, PIPT, %u-bit sub-blocks\n",
        sys.layout.l1Bytes() / 1024,
        static_cast<unsigned long long>(presetMalec().l1_latency),
        sys.layout.lineBytes(), sys.layout.l1Assoc(), sys.layout.l1Banks(),
        sys.layout.subBlockBytes() * 8);
    txt += strf("L2 cache      %llu MByte, %llu cycle latency, %u-way "
                "set-assoc.\n",
                static_cast<unsigned long long>(mem::kL2Bytes >> 20),
                static_cast<unsigned long long>(sys.l2_latency),
                mem::kL2Ways);
    txt += strf("DRAM          256 MByte, %llu cycle latency\n",
                static_cast<unsigned long long>(sys.dram_latency));
    txt += "Energy model  mini-CACTI, 32 nm, low-dynamic-power objective, "
           "LSTP data/tag cells\n";

    txt += "\nARRAY INVENTORY (mini-CACTI estimates per configuration)\n";
    for (const auto& cfg : {presetBase1ldst(), presetBase2ld1st(),
                            presetMalec(), presetMalecWdu(16)}) {
      energy::EnergyAccount ea;
      const auto inv = defineEnergies(ea, cfg, sys);
      txt += strf("\n  %s:\n", cfg.name.c_str());
      txt += strf("  %-12s %8s %9s %6s %9s %9s %9s\n", "array", "entries",
                  "bits/row", "inst", "read[pJ]", "write[pJ]", "leak[mW]");
      for (const auto& st : inv) {
        txt += strf("  %-12s %8llu %9u %6u %9.3f %9.3f %9.3f\n",
                    st.spec.name.c_str(),
                    static_cast<unsigned long long>(st.spec.entries),
                    st.spec.entry_bits, st.instances, st.est.read_pj,
                    st.est.write_pj, st.est.leak_mw * st.instances);
      }
    }
    ctx.emitText(txt);

    // Configuration spot-check: the full Fig. 4 configuration set on one
    // benchmark, dispatched as one parallel sweep.
    const auto outs =
        runMatrixParallel({workloadRegistry().get("gcc")}, fig4Configs(),
                          ctx.instructions, ctx.seed, ctx.jobs)[0];
    std::string sc;
    sc += strf("\nSPOT CHECK — gcc, %llu instructions, %u jobs\n",
               static_cast<unsigned long long>(ctx.instructions), ctx.jobs);
    sc += strf("%-22s %8s %12s %12s\n", "Config", "IPC", "dyn[uJ]",
               "total[uJ]");
    for (const auto& o : outs)
      sc += strf("%-22s %8.3f %12.3f %12.3f\n", o.config.c_str(), o.ipc,
                 o.dynamic_pj * 1e-6, o.total_pj * 1e-6);
    ctx.emitText(sc);
  };
  return s;
}

// --- Sec. V way-encoding analysis (custom prologue + grid table) ------------

ExperimentSpec specWayEncoding() {
  ExperimentSpec s;
  s.name = "way_encoding";
  s.title = "Sec. V — combined way encoding: storage and miss-rate effect";
  s.paper_anchor =
      "Paper: no measurable L1 miss-rate increase from the 3-way "
      "limitation";
  s.default_instructions = 100'000;
  s.custom = [](SuiteContext& ctx) {
    const core::SystemConfig sys = defaultSystem();

    std::string txt;
    waydet::WayTable wt(sys.tlb_entries, sys.layout.linesPerPage(),
                        sys.layout.l1Banks(), sys.layout.l1Assoc());
    txt += strf(
        "WT entry: combined format %u bits, naive format %u bits (-%.0f%%)\n",
        wt.entryBits(), wt.naiveEntryBits(),
        100.0 * (1.0 - static_cast<double>(wt.entryBits()) /
                           wt.naiveEntryBits()));

    const auto tech = energy::tech32nm();
    for (const char* fmt : {"combined", "naive"}) {
      energy::SramArraySpec spec;
      spec.name = fmt;
      spec.entries = sys.tlb_entries;
      spec.entry_bits = fmt == std::string("combined") ? wt.entryBits()
                                                       : wt.naiveEntryBits();
      spec.read_bits = 16;
      const auto est = energy::SramArrayModel::estimate(spec, tech);
      txt += strf("  %-9s WT: leak %.4f mW, area %.5f mm2\n", fmt,
                  est.leak_mw, est.area_mm2);
    }

    txt += "\nSegmented WT (wide pages, Sec. VI-D): storage vs flat\n";
    txt += strf("  %-10s %-8s %12s %12s\n", "page", "chunks", "seg bits",
                "flat bits");
    for (std::uint32_t page_kb : {4u, 16u, 64u}) {
      const std::uint32_t lines = page_kb * 1024 / sys.layout.lineBytes();
      for (std::uint32_t chunks : {64u, 128u}) {
        waydet::SegmentedWtGeometry g;
        g.slots = sys.tlb_entries;
        g.lines_per_page = lines;
        g.lines_per_chunk = 16;
        g.chunks = chunks;
        txt += strf("  %6u KB %8u %12u %12u\n", page_kb, chunks,
                    waydet::segmentedWtStorageBits(g),
                    waydet::flatWtStorageBits(g));
      }
    }
    ctx.emitText(txt);

    core::InterfaceConfig with = presetMalec();
    core::InterfaceConfig without = presetMalec();
    without.waydet = core::WayDetKind::kNone;  // no allocation restriction
    without.name = "MALEC_unrestricted";
    ctx.configs = {with, without};
    ctx.results = runMatrixParallel(ctx.workloads, ctx.configs,
                                    ctx.instructions, ctx.seed, ctx.jobs);
    ctx.progressDots();

    Table t("L1 load miss rate [%]: 3-way-restricted vs unrestricted",
            {"restricted", "unrestricted"});
    for (std::size_t w = 0; w < ctx.workloads.size(); ++w) {
      const auto& outs = ctx.results[w];
      t.addRow(ctx.workloads[w].name,
               {100.0 * outs[0].l1_load_miss_rate + 1e-6,
                100.0 * outs[1].l1_load_miss_rate + 1e-6});
    }
    t.addOverallGeomeanRow("geo.mean");
    ctx.emitText("\n");
    ctx.emitTable(t, "way_encoding_missrate", 2);
  };
  return s;
}

// --- trace replay: captured traces through the Table-I interfaces -----------

ExperimentSpec specTraceReplay() {
  ExperimentSpec s;
  s.name = "trace_replay";
  s.title =
      "Trace replay — captured *.mtrace workloads through the Table-I "
      "interfaces";
  s.paper_anchor =
      "(replayed captures stand in for the paper's 1B-instruction Simpoint\n"
      " traces of SPEC CPU2000 / MediaBench2 — capture with `trace_tools\n"
      " gen`, point MALEC_TRACE_DIR at the directory; a capture of a\n"
      " synthetic workload reproduces its direct run bit for bit)";
  s.workloads = {"trace:*"};
  s.configs = [] {
    return std::vector<core::InterfaceConfig>{
        presetBase1ldst(), presetBase2ld1st(), presetMalec()};
  };
  // 0 = replay each trace in full; MALEC_INSTR / --instr still cap it.
  s.default_instructions = 0;
  TableSpec tt;
  tt.name = "trace_replay_time";
  tt.title = "Trace replay — normalized execution time [%] (Base1ldst = 100)";
  tt.row = cyclesVsRefFn(0);
  tt.overall_geomean = true;
  s.tables.push_back(std::move(tt));
  TableSpec te;
  te.name = "trace_replay_energy";
  te.title = "Trace replay — normalized total energy [%] (Base1ldst = 100)";
  te.row = [](const SuiteContext& ctx, std::size_t w) {
    const auto& outs = ctx.results[w];
    std::vector<double> row;
    for (const auto& o : outs)
      row.push_back(100.0 * o.total_pj / outs[0].total_pj);
    return row;
  };
  te.overall_geomean = true;
  s.tables.push_back(std::move(te));
  TableSpec ti;
  ti.name = "trace_replay_ipc";
  ti.title = "Trace replay — IPC";
  ti.row = [](const SuiteContext& ctx, std::size_t w) {
    std::vector<double> row;
    for (const auto& o : ctx.results[w]) row.push_back(o.ipc);
    return row;
  };
  ti.precision = 3;
  s.tables.push_back(std::move(ti));
  return s;
}

// --- phase-sampled replay: sampled vs full on captured traces ---------------

/// The row holding workload `w`'s full replay: `w` itself unless it is a
/// sampled replay, whose capture "trace:*:sampled" lists right before it.
std::size_t fullReplayRow(const SuiteContext& ctx, std::size_t w) {
  const std::string full = fullReplayName(ctx.workloads[w].name);
  if (full.empty()) return w;
  for (std::size_t i = 0; i < ctx.workloads.size(); ++i)
    if (ctx.workloads[i].name == full) return i;
  const std::string msg = "suite '" + ctx.spec.name + "' has no row '" +
                          full + "' to compare '" + ctx.workloads[w].name +
                          "' against";
  MALEC_CHECK_MSG(false, msg.c_str());
  return w;
}

/// Row rule: `metric` x `scale` of every configuration, each followed by
/// its error [%] against the same configuration's full replay.
RowFn valueAndErrorFn(double RunOutput::*metric, double scale) {
  return [metric, scale](const SuiteContext& ctx, std::size_t w) {
    const auto& outs = ctx.results[w];
    const auto& full = ctx.results[fullReplayRow(ctx, w)];
    std::vector<double> row;
    row.reserve(2 * outs.size());
    for (std::size_t c = 0; c < outs.size(); ++c) {
      row.push_back(outs[c].*metric * scale);
      row.push_back(100.0 * (outs[c].*metric - full[c].*metric) /
                    full[c].*metric);
    }
    return row;
  };
}

ExperimentSpec specPhaseSampled() {
  ExperimentSpec s;
  s.name = "phase_sampled";
  s.title =
      "Phase sampling — BBV-interval sampled replay vs full replay "
      "(error + cost ratio)";
  s.paper_anchor =
      "(the paper simulates one representative Simpoint phase per\n"
      " benchmark instead of the whole run; this suite is the\n"
      " reproduction's analogue — k representative intervals per capture,\n"
      " warmup-primed, weighted back to a whole-trace estimate. err% =\n"
      " sampled estimate vs the capture's full replay; cost ratio = trace\n"
      " records / simulated records, warmup included. Write plans with\n"
      " `trace_tools phases <capture>`)";
  s.workloads = {"trace:*:sampled"};
  s.configs = [] {
    return std::vector<core::InterfaceConfig>{
        presetBase1ldst(), presetBase2ld1st(), presetMalec()};
  };
  // Sampled rows make the suite whole-stream: both replays stream their
  // plan/trace in full (see resolveSuiteContext).
  s.default_instructions = 0;
  std::vector<std::string> cols;
  for (const auto& cfg : s.configs()) {
    cols.push_back(cfg.name);
    cols.push_back(cfg.name + " err%");
  }
  TableSpec ti;
  ti.name = "phase_sampled_ipc";
  ti.title = "Phase sampling — IPC, err% vs the capture's full replay";
  ti.columns = cols;
  ti.row = valueAndErrorFn(&RunOutput::ipc, 1.0);
  ti.precision = 3;
  s.tables.push_back(std::move(ti));
  TableSpec te;
  te.name = "phase_sampled_energy";
  te.title =
      "Phase sampling — total energy [uJ], err% vs the capture's full "
      "replay";
  te.columns = cols;
  te.row = valueAndErrorFn(&RunOutput::total_pj, 1e-6);
  te.precision = 3;
  s.tables.push_back(std::move(te));
  TableSpec tc;
  tc.name = "phase_sampled_cost";
  tc.title =
      "Phase sampling — cost: trace records over simulated records "
      "(warmup included)";
  tc.columns = {"records", "simulated", "ratio x"};
  tc.row = [](const SuiteContext& ctx, std::size_t w) {
    const trace::WorkloadProfile& wl = ctx.workloads[w];
    // Every replay here streams the whole capture, and a sampled estimate
    // reports the capture's record count too.
    const auto records = static_cast<double>(ctx.results[w][0].instructions);
    const double simulated =
        wl.isSampled()
            ? static_cast<double>(sampledPlan(wl).simulatedInstructions())
            : records;
    return std::vector<double>{records, simulated, records / simulated};
  };
  tc.precision = 2;
  s.tables.push_back(std::move(tc));
  return s;
}

}  // namespace

void registerBuiltinSpecs(Registry<ExperimentSpec>& reg) {
  auto add = [&reg](ExperimentSpec s) {
    std::string name = s.name;
    reg.add(name, std::move(s));
  };
  add(specFig1());
  add(specTab1Tab2());
  add(specFig4a());
  add(specFig4b());
  add(specWduVsWt());
  add(specCoverageAblation());
  add(specMergeContribution());
  add(specArbitrationWindow());
  add(specWayEncoding());
  add(specSensitivityLatency());
  add(specSensitivityCarry());
  add(specSensitivityBuses());
  add(specSensitivityWaydet());
  add(specSensitivityScaling());
  add(specTraceReplay());
  add(specPhaseSampled());
}

}  // namespace malec::sim
