#include "core/malec_interface.h"

#include <gtest/gtest.h>

#include "sim/presets.h"
#include "sim/structures.h"

namespace malec::core {
namespace {

struct Rig {
  explicit Rig(InterfaceConfig cfg = sim::presetMalec())
      : config(std::move(cfg)) {
    sim::defineEnergies(ea, config, sys);
    ifc = std::make_unique<MalecInterface>(config, sys, ea);
  }

  /// Run `n` idle cycles (begin+end), collecting completions.
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

  bool submitLoad(SeqNum seq, Addr a) {
    return ifc->submit(MemOp{seq, true, a, 8});
  }
  bool submitStore(SeqNum seq, Addr a) {
    return ifc->submit(MemOp{seq, false, a, 8});
  }

  InterfaceConfig config;
  SystemConfig sys;
  energy::EnergyAccount ea;
  std::unique_ptr<MalecInterface> ifc;
  Cycle now = 0;
};

constexpr Addr kPageA = 0x111 * 4096;
constexpr Addr kPageB = 0x222 * 4096;

TEST(MalecInterface, LoadMissCompletesAfterMemoryLatency) {
  Rig rig;
  rig.ifc->beginCycle(0);
  ASSERT_TRUE(rig.submitLoad(1, kPageA));
  rig.ifc->endCycle(0);
  rig.now = 1;
  // Cold access: page walk (30) defers translation; then L2+DRAM miss.
  const auto done = rig.cycles(150);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 1u);
  EXPECT_EQ(rig.ifc->stats().load_l1_misses, 1u);
  EXPECT_TRUE(rig.ifc->quiesced());
}

TEST(MalecInterface, WarmLoadHitCompletesAtL1Latency) {
  Rig rig;
  rig.ifc->beginCycle(0);
  rig.submitLoad(1, kPageA);
  rig.ifc->endCycle(0);
  rig.now = 1;
  rig.cycles(150);

  // Same line again: uTLB hit, L1 hit, 2-cycle latency.
  rig.ifc->beginCycle(rig.now);
  rig.submitLoad(2, kPageA);
  const Cycle submit_cycle = rig.now;
  rig.ifc->endCycle(rig.now);
  ++rig.now;
  std::vector<SeqNum> done;
  while (done.empty() && rig.now < submit_cycle + 10) {
    rig.ifc->beginCycle(rig.now);
    rig.ifc->drainCompletions(rig.now, done);
    rig.ifc->endCycle(rig.now);
    ++rig.now;
  }
  ASSERT_EQ(done.size(), 1u);
  // Completion visible when drained at submit_cycle + l1_latency.
  EXPECT_EQ(rig.now - 1, submit_cycle + rig.config.l1_latency);
}

TEST(MalecInterface, SamePageLoadsServicedTogether) {
  Rig rig;
  // Warm up the page and two lines in different banks.
  rig.ifc->beginCycle(0);
  rig.submitLoad(1, kPageA);
  rig.ifc->endCycle(0);
  rig.now = 1;
  rig.cycles(150);
  rig.ifc->beginCycle(rig.now);
  rig.submitLoad(2, kPageA + 64);
  rig.ifc->endCycle(rig.now);
  ++rig.now;
  rig.cycles(150);

  const auto groups_before = rig.ifc->stats().groups;
  rig.ifc->beginCycle(rig.now);
  rig.submitLoad(3, kPageA);
  rig.submitLoad(4, kPageA + 64);
  rig.ifc->endCycle(rig.now);
  ++rig.now;
  const auto done = rig.cycles(5);
  EXPECT_EQ(done.size(), 2u);
  // Both were serviced in ONE page group (one translation).
  EXPECT_EQ(rig.ifc->stats().groups, groups_before + 1);
}

TEST(MalecInterface, CrossPageLoadsTakeTwoCycles) {
  Rig rig;
  // Warm both pages.
  for (Addr a : {kPageA, kPageB}) {
    rig.ifc->beginCycle(rig.now);
    rig.submitLoad(a == kPageA ? 1 : 2, a);
    rig.ifc->endCycle(rig.now);
    ++rig.now;
    rig.cycles(150);
  }
  // Two loads to different pages in the same cycle: the second page's load
  // must wait a cycle (one page per cycle, Sec. IV).
  rig.ifc->beginCycle(rig.now);
  rig.submitLoad(3, kPageA);
  rig.submitLoad(4, kPageB);
  const Cycle t0 = rig.now;
  rig.ifc->endCycle(rig.now);
  ++rig.now;

  std::vector<SeqNum> done;
  Cycle last_done = 0;
  while (done.size() < 2 && rig.now < t0 + 12) {
    rig.ifc->beginCycle(rig.now);
    const auto before = done.size();
    rig.ifc->drainCompletions(rig.now, done);
    if (done.size() > before) last_done = rig.now;
    rig.ifc->endCycle(rig.now);
    ++rig.now;
  }
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(last_done, t0 + 1 + rig.config.l1_latency);
}

TEST(MalecInterface, MergedLoadsShareOneDataRead) {
  Rig rig;
  rig.ifc->beginCycle(0);
  rig.submitLoad(1, kPageA);
  rig.ifc->endCycle(0);
  rig.now = 1;
  rig.cycles(150);

  const auto reads_before = rig.ea.eventCount("l1.data_read");
  rig.ifc->beginCycle(rig.now);
  rig.submitLoad(2, kPageA);       // same sub-block pair
  rig.submitLoad(3, kPageA + 16);  // adjacent sub-block: merges
  rig.ifc->endCycle(rig.now);
  ++rig.now;
  const auto done = rig.cycles(5);
  EXPECT_EQ(done.size(), 2u);
  EXPECT_EQ(rig.ifc->stats().merged_loads, 1u);
  EXPECT_EQ(rig.ea.eventCount("l1.data_read"), reads_before + 1);
}

TEST(MalecInterface, ReducedAccessAfterWarmup) {
  Rig rig;
  rig.ifc->beginCycle(0);
  rig.submitLoad(1, kPageA);
  rig.ifc->endCycle(0);
  rig.now = 1;
  rig.cycles(150);

  // The fill recorded the way; the next access must bypass the tags.
  const auto tag_before = rig.ea.eventCount("l1.tag_read");
  rig.ifc->beginCycle(rig.now);
  rig.submitLoad(2, kPageA + 8);
  rig.ifc->endCycle(rig.now);
  ++rig.now;
  rig.cycles(5);
  EXPECT_GE(rig.ifc->stats().reduced_accesses, 1u);
  EXPECT_EQ(rig.ea.eventCount("l1.tag_read"), tag_before);
}

TEST(MalecInterface, StoreDrainsThroughSbMbToCache) {
  Rig rig;
  rig.ifc->beginCycle(0);
  ASSERT_TRUE(rig.submitStore(1, kPageA));
  rig.ifc->endCycle(0);
  rig.now = 1;
  EXPECT_EQ(rig.ifc->backend().storeBuffer().size(), 1u);
  rig.ifc->notifyStoreCommit(1);
  rig.cycles(3);
  EXPECT_EQ(rig.ifc->backend().storeBuffer().size(), 0u);
  EXPECT_EQ(rig.ifc->backend().mergeBuffer().size(), 1u);
}

TEST(MalecInterface, MbEvictionWritesL1) {
  Rig rig;
  // Fill the 4-entry Merge Buffer with distinct lines, then one more.
  for (SeqNum s = 1; s <= 5; ++s) {
    rig.ifc->beginCycle(rig.now);
    ASSERT_TRUE(rig.submitStore(s, kPageA + (s - 1) * 64));
    rig.ifc->endCycle(rig.now);
    ++rig.now;
    rig.ifc->notifyStoreCommit(s);
    rig.cycles(2);
  }
  // The evicted MBE flows through the Input Buffer into the cache.
  rig.cycles(200);
  EXPECT_GE(rig.ifc->stats().mbe_writes, 1u);
  EXPECT_TRUE(rig.ifc->quiesced());
}

TEST(MalecInterface, SbForwardingServesLoadWithoutL1) {
  Rig rig;
  rig.ifc->beginCycle(0);
  rig.submitStore(1, kPageA);
  rig.ifc->endCycle(0);
  rig.now = 1;
  // Load overlapping the uncommitted store: must forward from the SB.
  const auto l1_before = rig.ifc->stats().load_l1_accesses;
  rig.ifc->beginCycle(rig.now);
  rig.submitLoad(2, kPageA);
  rig.ifc->endCycle(rig.now);
  ++rig.now;
  const auto done = rig.cycles(40);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(rig.ifc->stats().sb_forwards, 1u);
  EXPECT_EQ(rig.ifc->stats().load_l1_accesses, l1_before);
}

TEST(MalecInterface, BackpressureWhenInputBufferFull) {
  Rig rig;
  rig.ifc->beginCycle(0);
  // Capacity: carry(2) + AGU(3) = 5 loads.
  for (SeqNum s = 1; s <= 5; ++s)
    ASSERT_TRUE(rig.submitLoad(s, kPageA + s * 4096 * 2));
  EXPECT_FALSE(rig.ifc->canAcceptLoad());
  EXPECT_FALSE(rig.submitLoad(6, kPageB));
  rig.ifc->endCycle(0);
  rig.now = 1;
  rig.cycles(400);
  EXPECT_TRUE(rig.ifc->quiesced());
}

TEST(MalecInterface, SbCapacityBackpressure) {
  Rig rig;
  rig.ifc->beginCycle(0);
  for (SeqNum s = 1; s <= rig.sys.sb_entries; ++s)
    ASSERT_TRUE(rig.submitStore(s, kPageA + s * 8));
  EXPECT_FALSE(rig.ifc->canAcceptStore());
  EXPECT_FALSE(rig.submitStore(99, kPageB));
  rig.ifc->endCycle(0);
}

TEST(MalecInterface, WduVariantCoversRepeatedLines) {
  Rig rig{sim::presetMalecWdu(16)};
  rig.ifc->beginCycle(0);
  rig.submitLoad(1, kPageA);
  rig.ifc->endCycle(0);
  rig.now = 1;
  rig.cycles(150);
  rig.ifc->beginCycle(rig.now);
  rig.submitLoad(2, kPageA + 8);
  rig.ifc->endCycle(rig.now);
  ++rig.now;
  rig.cycles(5);
  EXPECT_GE(rig.ifc->stats().way_known, 1u);
  EXPECT_GE(rig.ea.eventCount("wdu.search"), 1u);
}

}  // namespace
}  // namespace malec::core
