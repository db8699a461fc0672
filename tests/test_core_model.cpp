#include "cpu/core_model.h"

#include <gtest/gtest.h>

#include "energy/energy_account.h"
#include "sim/experiment.h"
#include "sim/presets.h"
#include "trace/trace_io.h"

namespace malec::cpu {
namespace {

using trace::InstrKind;
using trace::InstrRecord;

InstrRecord alu(SeqNum seq, std::uint32_t dep = 0) {
  InstrRecord r;
  r.seq = seq;
  r.dep_distance = dep;
  return r;
}

InstrRecord load(SeqNum seq, Addr a, std::uint32_t dep = 0) {
  InstrRecord r;
  r.seq = seq;
  r.kind = InstrKind::kLoad;
  r.vaddr = a;
  r.size = 8;
  r.dep_distance = dep;
  return r;
}

InstrRecord store(SeqNum seq, Addr a) {
  InstrRecord r;
  r.seq = seq;
  r.kind = InstrKind::kStore;
  r.vaddr = a;
  r.size = 8;
  return r;
}

/// Run a fixed instruction vector through a full MALEC (or baseline) stack.
CoreStats run(std::vector<InstrRecord> recs,
              core::InterfaceConfig cfg = sim::presetMalec(),
              Cycle max_cycles = 500'000) {
  core::SystemConfig sys;
  energy::EnergyAccount ea;
  const sim::RunStack stack(cfg, sys, ea);
  trace::VectorTraceSource src(std::move(recs));
  CoreModel core(sys, cfg, src, stack.ifc());
  return core.run(max_cycles);
}

TEST(CoreModel, RetiresEveryInstruction) {
  std::vector<InstrRecord> recs;
  for (SeqNum i = 0; i < 100; ++i) recs.push_back(alu(i));
  const auto st = run(recs);
  EXPECT_EQ(st.instructions, 100u);
  EXPECT_GT(st.cycles, 0u);
}

TEST(CoreModel, IndependentAluBoundedByWidths) {
  std::vector<InstrRecord> recs;
  for (SeqNum i = 0; i < 6000; ++i) recs.push_back(alu(i));
  const auto st = run(recs);
  // Independent single-cycle ops: IPC approaches the 6-wide commit limit.
  EXPECT_GT(st.ipc(), 4.5);
  EXPECT_LE(st.ipc(), 6.05);
}

TEST(CoreModel, SerialChainRunsAtIpcOne) {
  std::vector<InstrRecord> recs;
  recs.push_back(alu(0));
  for (SeqNum i = 1; i < 3000; ++i) recs.push_back(alu(i, 1));
  const auto st = run(recs);
  EXPECT_NEAR(st.ipc(), 1.0, 0.1);
}

TEST(CoreModel, LoadsAndStoresCounted) {
  std::vector<InstrRecord> recs;
  for (SeqNum i = 0; i < 300; ++i) {
    if (i % 3 == 0) recs.push_back(load(i, 0x10'0000 + i * 8));
    else if (i % 3 == 1) recs.push_back(store(i, 0x20'0000 + i * 8));
    else recs.push_back(alu(i));
  }
  const auto st = run(recs);
  EXPECT_EQ(st.instructions, 300u);
  EXPECT_EQ(st.loads, 100u);
  EXPECT_EQ(st.stores, 100u);
}

TEST(CoreModel, LoadLatencyGatesDependents) {
  // load ; dependent ALU chain: cycles must reflect the L1 latency on
  // every load->use edge.
  std::vector<InstrRecord> warm = {load(0, 0x10'0000)};
  for (SeqNum i = 1; i < 400; ++i) {
    if (i % 2 == 0) warm.push_back(load(i, 0x10'0000 + (i % 8) * 8, 1));
    else warm.push_back(alu(i, 1));
  }
  const auto fast = run(warm, sim::presetMalec());
  auto slow_cfg = sim::presetMalec();
  slow_cfg.l1_latency = 3;
  slow_cfg.name = "MALEC_3cyc";
  const auto slow = run(warm, slow_cfg);
  EXPECT_GT(slow.cycles, fast.cycles);
}

TEST(CoreModel, StoreHeavyStreamDrains) {
  std::vector<InstrRecord> recs;
  for (SeqNum i = 0; i < 500; ++i) recs.push_back(store(i, 0x30'0000 + i * 8));
  const auto st = run(recs);
  EXPECT_EQ(st.instructions, 500u);
}

TEST(CoreModel, PointerChaseSerialises) {
  // Every load's address depends on the previous load: MLP collapses.
  std::vector<InstrRecord> chase = {load(0, 0x10'0000)};
  for (SeqNum i = 1; i < 300; ++i) {
    InstrRecord r = load(i, 0x10'0000 + (i % 64) * 64);
    r.addr_dep_distance = 1;
    chase.push_back(r);
  }
  std::vector<InstrRecord> parallel;
  for (SeqNum i = 0; i < 300; ++i)
    parallel.push_back(load(i, 0x10'0000 + (i % 64) * 64));
  const auto chased = run(chase);
  const auto par = run(parallel);
  EXPECT_GT(chased.cycles, par.cycles * 2);
}

TEST(CoreModel, RobBoundsInFlightWork) {
  // A load miss at the head blocks commit; the ROB (168) bounds how many
  // subsequent instructions dispatch meanwhile.
  std::vector<InstrRecord> recs = {load(0, 0x77'0000)};
  for (SeqNum i = 1; i < 1000; ++i) recs.push_back(alu(i));
  const auto st = run(recs);
  EXPECT_GT(st.rob_full_cycles, 0u);
}

TEST(CoreModel, DeterministicAcrossRuns) {
  std::vector<InstrRecord> recs;
  for (SeqNum i = 0; i < 500; ++i) {
    if (i % 4 == 0) recs.push_back(load(i, 0x10'0000 + (i * 24) % 8192, i % 3));
    else recs.push_back(alu(i, i % 5));
  }
  const auto a = run(recs);
  const auto b = run(recs);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
}

TEST(CoreModel, EmptyTraceFinishesImmediately) {
  const auto st = run({});
  EXPECT_EQ(st.instructions, 0u);
  EXPECT_LE(st.cycles, 2u);
}

TEST(CoreModel, MaxCyclesBoundsRunaway) {
  std::vector<InstrRecord> recs;
  for (SeqNum i = 0; i < 100'000; ++i) recs.push_back(alu(i, 1));
  const auto st =
      run(std::move(recs), sim::presetMalec(), /*max_cycles=*/1000);
  EXPECT_EQ(st.cycles, 1000u);
}

TEST(CoreModel, WorksWithAllInterfaceKinds) {
  std::vector<InstrRecord> recs;
  for (SeqNum i = 0; i < 400; ++i) {
    if (i % 3 == 0) recs.push_back(load(i, 0x10'0000 + (i % 32) * 64));
    else if (i % 7 == 0) recs.push_back(store(i, 0x10'0000 + (i % 16) * 8));
    else recs.push_back(alu(i, i % 2));
  }
  for (const auto& cfg : {sim::presetBase1ldst(), sim::presetBase2ld1st(),
                          sim::presetMalec(), sim::presetMalecWdu(16),
                          sim::presetMalecNoWaydet()}) {
    const auto st = run(recs, cfg);
    EXPECT_EQ(st.instructions, 400u) << cfg.name;
  }
}

}  // namespace
}  // namespace malec::cpu
