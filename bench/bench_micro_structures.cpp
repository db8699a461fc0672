// Google-benchmark microbenchmarks of the simulator's hot structures:
// L1 probes, TLB lookups, Way Table lookups, WDU searches, arbitration and
// the end-to-end cycle loop. These measure *simulator* throughput (host
// nanoseconds), not modelled energy — useful when extending the model.
#include <benchmark/benchmark.h>

#include "common/address.h"
#include "common/rng.h"
#include "core/arbitration_unit.h"
#include "mem/cache.h"
#include "sim/experiment.h"
#include "sim/presets.h"
#include "tlb/tlb.h"
#include "trace/synth_generator.h"
#include "trace/workloads.h"
#include "waydet/way_table.h"
#include "waydet/wdu.h"

namespace {

using namespace malec;

void BM_L1Probe(benchmark::State& state) {
  const AddressLayout layout;
  mem::Cache l1(layout.l1Sets(), layout.l1Assoc(), layout.lineBytes());
  Rng rng(7);
  for (int i = 0; i < 512; ++i) {
    const Addr a = 0x1000'0000ull + rng.below(1u << 20) * 64;
    if (!l1.probe(a).has_value()) l1.fill(a, l1.allWays());
  }
  Addr a = 0x1000'0000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(l1.probe(a));
    a += 64;
    a &= 0x1FFF'FFFF;
  }
}
BENCHMARK(BM_L1Probe);

void BM_TlbLookup(benchmark::State& state) {
  tlb::Tlb::Params p;
  p.entries = static_cast<std::uint32_t>(state.range(0));
  tlb::Tlb t(p);
  for (std::uint32_t i = 0; i < p.entries; ++i) t.insert(i, i + 100);
  PageId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.lookupV(v));
    v = (v + 1) % p.entries;
  }
}
BENCHMARK(BM_TlbLookup)->Arg(16)->Arg(64);

void BM_WayTableLookup(benchmark::State& state) {
  waydet::WayTable wt(64, 64, 4, 4);
  for (std::uint32_t s = 0; s < 64; ++s)
    for (std::uint32_t l = 0; l < 64; ++l) wt.record(s, l, s, (l + 1) % 4);
  std::uint32_t s = 0, l = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wt.lookup(s, l, s));
    l = (l + 1) & 63;
    s = (s + (l == 0)) & 63;
  }
}
BENCHMARK(BM_WayTableLookup);

void BM_WduSearch(benchmark::State& state) {
  waydet::Wdu wdu(static_cast<std::uint32_t>(state.range(0)));
  for (std::uint32_t i = 0; i < wdu.entries(); ++i)
    wdu.record(0x40000 + i, static_cast<WayIdx>(i % 4));
  LineAddr line = 0x40000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wdu.lookup(line));
    line = 0x40000 + ((line + 1) % (2 * wdu.entries()));
  }
}
BENCHMARK(BM_WduSearch)->Arg(8)->Arg(16)->Arg(32);

void BM_Arbitrate(benchmark::State& state) {
  core::ArbitrationUnit arb(core::ArbitrationUnit::Params{});
  std::vector<core::ArbCandidate> cands;
  Rng rng(3);
  for (std::size_t i = 0; i < 6; ++i) {
    core::ArbCandidate c;
    c.ib_index = i;
    c.vaddr = 0x1000'0000ull + rng.below(4096);
    c.size = 8;
    cands.push_back(c);
  }
  for (auto _ : state) benchmark::DoNotOptimize(arb.arbitrate(cands));
}
BENCHMARK(BM_Arbitrate);

void BM_TraceGeneration(benchmark::State& state) {
  const auto wl = trace::workloadByName("gcc");
  trace::SyntheticTraceGenerator gen(wl, AddressLayout{}, 0, 1);
  trace::InstrRecord r;
  for (auto _ : state) {
    gen.next(r);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TraceGeneration);

void BM_EndToEndSim(benchmark::State& state) {
  // Whole-pipeline throughput: instructions simulated per host second.
  for (auto _ : state) {
    sim::RunConfig rc;
    rc.workload = trace::workloadByName("eon");
    rc.interface_cfg = sim::presetMalec();
    rc.system = sim::defaultSystem();
    rc.instructions = 20'000;
    const auto out = sim::runOne(rc);
    benchmark::DoNotOptimize(out.cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          20'000);
}
BENCHMARK(BM_EndToEndSim)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
