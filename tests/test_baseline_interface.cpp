#include "core/baseline_interface.h"

#include <gtest/gtest.h>

#include "sim/presets.h"
#include "sim/structures.h"

namespace malec::core {
namespace {

struct Rig {
  explicit Rig(InterfaceConfig cfg) : config(std::move(cfg)) {
    sim::defineEnergies(ea, config, sys);
    ifc = std::make_unique<BaselineInterface>(config, sys, ea);
  }

  std::vector<SeqNum> cycles(std::uint32_t n) {
    std::vector<SeqNum> done;
    for (std::uint32_t i = 0; i < n; ++i) {
      ifc->beginCycle(now);
      ifc->drainCompletions(now, done);
      ifc->endCycle(now);
      ++now;
    }
    return done;
  }

  InterfaceConfig config;
  SystemConfig sys;
  energy::EnergyAccount ea;
  std::unique_ptr<BaselineInterface> ifc;
  Cycle now = 0;
};

constexpr Addr kPageA = 0x111 * 4096;

TEST(BaselineInterface, LoadMissThenWarmHit) {
  Rig rig(sim::presetBase1ldst());
  rig.ifc->beginCycle(0);
  ASSERT_TRUE(rig.ifc->submit(MemOp{1, true, kPageA, 8}));
  rig.ifc->endCycle(0);
  rig.now = 1;
  auto done = rig.cycles(150);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(rig.ifc->stats().load_l1_misses, 1u);

  rig.ifc->beginCycle(rig.now);
  rig.ifc->submit(MemOp{2, true, kPageA, 8});
  const Cycle t0 = rig.now;
  rig.ifc->endCycle(rig.now);
  ++rig.now;
  done.clear();
  while (done.empty()) {
    rig.ifc->beginCycle(rig.now);
    rig.ifc->drainCompletions(rig.now, done);
    rig.ifc->endCycle(rig.now);
    ++rig.now;
  }
  EXPECT_EQ(rig.now - 1, t0 + rig.config.l1_latency);
}

TEST(BaselineInterface, Base1ServicesOneLoadPerCycle) {
  Rig rig(sim::presetBase1ldst());
  // Warm two lines.
  for (SeqNum s = 1; s <= 2; ++s) {
    rig.ifc->beginCycle(rig.now);
    rig.ifc->submit(MemOp{s, true, kPageA + (s - 1) * 64, 8});
    rig.ifc->endCycle(rig.now);
    ++rig.now;
    rig.cycles(120);
  }
  // Two warm loads in one cycle: Base1ldst's single port serialises them.
  rig.ifc->beginCycle(rig.now);
  rig.ifc->submit(MemOp{3, true, kPageA, 8});
  rig.ifc->submit(MemOp{4, true, kPageA + 64, 8});
  const Cycle t0 = rig.now;
  rig.ifc->endCycle(rig.now);
  ++rig.now;
  std::vector<SeqNum> done;
  Cycle last = 0;
  while (done.size() < 2) {
    rig.ifc->beginCycle(rig.now);
    const auto b = done.size();
    rig.ifc->drainCompletions(rig.now, done);
    if (done.size() > b) last = rig.now;
    rig.ifc->endCycle(rig.now);
    ++rig.now;
  }
  EXPECT_EQ(last, t0 + 1 + rig.config.l1_latency);
}

TEST(BaselineInterface, Base2ServicesTwoLoadsPerCycle) {
  Rig rig(sim::presetBase2ld1st());
  for (SeqNum s = 1; s <= 2; ++s) {
    rig.ifc->beginCycle(rig.now);
    rig.ifc->submit(MemOp{s, true, kPageA + (s - 1) * 64, 8});
    rig.ifc->endCycle(rig.now);
    ++rig.now;
    rig.cycles(120);
  }
  rig.ifc->beginCycle(rig.now);
  rig.ifc->submit(MemOp{3, true, kPageA, 8});
  rig.ifc->submit(MemOp{4, true, kPageA + 64, 8});
  const Cycle t0 = rig.now;
  rig.ifc->endCycle(rig.now);
  ++rig.now;
  std::vector<SeqNum> done;
  Cycle last = 0;
  while (done.size() < 2) {
    rig.ifc->beginCycle(rig.now);
    const auto b = done.size();
    rig.ifc->drainCompletions(rig.now, done);
    if (done.size() > b) last = rig.now;
    rig.ifc->endCycle(rig.now);
    ++rig.now;
  }
  // Both complete together: the multi-ported cache took both in one cycle.
  EXPECT_EQ(last, t0 + rig.config.l1_latency);
}

TEST(BaselineInterface, AlwaysConventionalAccess) {
  Rig rig(sim::presetBase2ld1st());
  rig.ifc->beginCycle(0);
  rig.ifc->submit(MemOp{1, true, kPageA, 8});
  rig.ifc->endCycle(0);
  rig.now = 1;
  rig.cycles(150);
  rig.ifc->beginCycle(rig.now);
  rig.ifc->submit(MemOp{2, true, kPageA, 8});
  rig.ifc->endCycle(rig.now);
  ++rig.now;
  rig.cycles(5);
  EXPECT_EQ(rig.ifc->stats().reduced_accesses, 0u);
  EXPECT_EQ(rig.ifc->stats().conventional_accesses,
            rig.ifc->stats().load_l1_accesses);
  EXPECT_EQ(rig.ifc->stats().way_lookups, 0u);
}

TEST(BaselineInterface, StoreCommitDrainsToMergeBuffer) {
  Rig rig(sim::presetBase1ldst());
  rig.ifc->beginCycle(0);
  ASSERT_TRUE(rig.ifc->submit(MemOp{1, false, kPageA, 8}));
  rig.ifc->endCycle(0);
  rig.now = 1;
  EXPECT_EQ(rig.ifc->backend().storeBuffer().size(), 1u);
  rig.ifc->notifyStoreCommit(1);
  rig.cycles(3);
  EXPECT_EQ(rig.ifc->backend().storeBuffer().size(), 0u);
  EXPECT_EQ(rig.ifc->backend().mergeBuffer().size(), 1u);
}

TEST(BaselineInterface, MbEvictionEventuallyWritesCache) {
  Rig rig(sim::presetBase1ldst());
  for (SeqNum s = 1; s <= 5; ++s) {
    rig.ifc->beginCycle(rig.now);
    ASSERT_TRUE(rig.ifc->submit(MemOp{s, false, kPageA + (s - 1) * 64, 8}));
    rig.ifc->endCycle(rig.now);
    ++rig.now;
    rig.ifc->notifyStoreCommit(s);
    rig.cycles(2);
  }
  rig.cycles(200);
  EXPECT_GE(rig.ifc->stats().mbe_writes, 1u);
  EXPECT_TRUE(rig.ifc->quiesced());
}

TEST(BaselineInterface, SbForwarding) {
  Rig rig(sim::presetBase2ld1st());
  rig.ifc->beginCycle(0);
  rig.ifc->submit(MemOp{1, false, kPageA, 8});
  rig.ifc->submit(MemOp{2, true, kPageA, 8});
  rig.ifc->endCycle(0);
  rig.now = 1;
  const auto done = rig.cycles(40);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(rig.ifc->stats().sb_forwards, 1u);
}

TEST(BaselineInterface, BacklogBoundsAcceptance) {
  Rig rig(sim::presetBase1ldst());
  rig.ifc->beginCycle(0);
  int accepted = 0;
  for (SeqNum s = 1; s <= 10; ++s)
    accepted += rig.ifc->submit(MemOp{s, true, kPageA + s * 64, 8});
  EXPECT_LT(accepted, 10);  // backpressure kicks in
  rig.ifc->endCycle(0);
  rig.now = 1;
  rig.cycles(400);
  EXPECT_TRUE(rig.ifc->quiesced());
}

TEST(BaselineInterface, MultiPortEnergyCostsMore) {
  // The same single warm load costs more dynamic energy on Base2ld1st
  // because its arrays carry extra physical ports (paper VI-C).
  auto run = [](const InterfaceConfig& cfg) {
    Rig rig(cfg);
    rig.ifc->beginCycle(0);
    rig.ifc->submit(MemOp{1, true, kPageA, 8});
    rig.ifc->endCycle(0);
    rig.now = 1;
    rig.cycles(150);
    rig.ea.clearCounts();
    rig.ifc->beginCycle(rig.now);
    rig.ifc->submit(MemOp{2, true, kPageA, 8});
    rig.ifc->endCycle(rig.now);
    ++rig.now;
    rig.cycles(5);
    return rig.ea.dynamicPj();
  };
  EXPECT_GT(run(sim::presetBase2ld1st()), run(sim::presetBase1ldst()) * 1.2);
}

}  // namespace
}  // namespace malec::core
