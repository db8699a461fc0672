// Quickstart: simulate one benchmark on the three Table I interfaces and
// print performance, energy and way-determination headlines.
//
//   ./quickstart [benchmark] [instructions]
//
// Defaults: gcc, 200k instructions. Benchmarks: any SPEC CPU2000 /
// MediaBench2 name from src/trace/workloads.cpp (e.g. mcf, gap, djpeg).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/experiment.h"
#include "sim/presets.h"
#include "sim/registry.h"

int main(int argc, char** argv) {
  using namespace malec;

  const std::string bench = argc > 1 ? argv[1] : "gcc";
  const std::uint64_t instructions =
      argc > 2 ? sim::parseU64Strict(argv[2], "instruction count") : 200'000;

  const trace::WorkloadProfile* wl = sim::workloadRegistry().tryGet(bench);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown benchmark '%s' — registered workloads:\n ",
                 bench.c_str());
    for (const auto& name : sim::workloadRegistry().names())
      std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return 1;
  }

  std::printf("MALEC quickstart — benchmark %s, %llu instructions\n\n",
              bench.c_str(),
              static_cast<unsigned long long>(instructions));

  const std::vector<core::InterfaceConfig> cfgs = {
      sim::presetBase1ldst(), sim::presetBase2ld1st(), sim::presetMalec()};
  const auto outs = sim::runMatrixParallel({*wl}, cfgs, instructions)[0];

  const double base_cycles = static_cast<double>(outs[0].cycles);
  const double base_energy = outs[0].total_pj;

  std::printf("%-12s %10s %6s %9s %9s %9s %8s %8s\n", "config", "cycles",
              "IPC", "dyn[uJ]", "leak[uJ]", "E_norm%", "time%", "cover%");
  for (const auto& o : outs) {
    std::printf("%-12s %10llu %6.2f %9.2f %9.2f %9.1f %8.1f %8.1f\n",
                o.config.c_str(),
                static_cast<unsigned long long>(o.cycles), o.ipc,
                o.dynamic_pj * 1e-6, o.leakage_pj * 1e-6,
                100.0 * o.total_pj / base_energy,
                100.0 * static_cast<double>(o.cycles) / base_cycles,
                100.0 * o.way_coverage);
  }

  const auto& m = outs[2];
  std::printf(
      "\nMALEC detail: %llu loads submitted, %llu L1 load reads "
      "(%.1f%% merged away), %llu reduced / %llu conventional accesses,\n"
      "              L1 load miss rate %.2f%%, %llu page groups "
      "(%.2f accesses/group)\n",
      static_cast<unsigned long long>(m.ifc.loads_submitted),
      static_cast<unsigned long long>(m.ifc.load_l1_accesses),
      100.0 * m.merged_load_fraction,
      static_cast<unsigned long long>(m.ifc.reduced_accesses),
      static_cast<unsigned long long>(m.ifc.conventional_accesses),
      100.0 * m.l1_load_miss_rate,
      static_cast<unsigned long long>(m.ifc.groups),
      m.ifc.groups ? static_cast<double>(m.ifc.group_entries) /
                         static_cast<double>(m.ifc.groups)
                   : 0.0);
  return 0;
}
