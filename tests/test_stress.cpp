// Stress tests: randomised interface driving outside the CoreModel's
// well-behaved patterns — bursty submissions, adversarial commit timing,
// mixed sizes, pathological address streams — asserting that every
// interface keeps its invariants, never wedges and always drains.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "core/mem_interface.h"
#include "energy/energy_account.h"
#include "sim/experiment.h"
#include "sim/presets.h"

namespace malec::core {
namespace {

struct Harness {
  explicit Harness(const InterfaceConfig& cfg_in, std::uint64_t seed)
      : cfg(cfg_in), stack(cfg, sys, ea), ifc(stack.ifc()), rng(seed) {}

  /// Drive `cycles` cycles of random traffic.
  void drive(std::uint32_t cycles, double load_rate, double store_rate,
             std::uint32_t pages) {
    for (std::uint32_t c = 0; c < cycles; ++c) {
      ifc.beginCycle(now);
      ifc.drainCompletions(now, completed);

      // Commit a random pending store occasionally (out-of-order commit
      // arrival is not possible from the real core, but the SB drains in
      // buffer order regardless; commit notifications here arrive in
      // program order as the contract requires).
      if (!uncommitted.empty() && rng.chance(0.7)) {
        ifc.notifyStoreCommit(uncommitted.front());
        uncommitted.erase(uncommitted.begin());
      }

      // Bursty submissions.
      for (std::uint32_t k = 0; k < 4; ++k) {
        if (rng.chance(load_rate) && ifc.canAcceptLoad()) {
          MemOp op{next_seq++, true, randomAddr(pages),
                   static_cast<std::uint8_t>(1u << rng.below(4))};
          op.vaddr &= ~static_cast<Addr>(op.size - 1);
          EXPECT_TRUE(ifc.submit(op));
          ++loads_submitted;
        }
        if (rng.chance(store_rate) && ifc.canAcceptStore()) {
          MemOp op{next_seq++, false, randomAddr(pages),
                   static_cast<std::uint8_t>(1u << rng.below(4))};
          op.vaddr &= ~static_cast<Addr>(op.size - 1);
          EXPECT_TRUE(ifc.submit(op));
          uncommitted.push_back(op.seq);
        }
      }
      ifc.endCycle(now);
      ++now;
    }
  }

  /// Commit stragglers and run until quiesced (bounded).
  bool drain(std::uint32_t bound = 5000) {
    for (std::uint32_t c = 0; c < bound; ++c) {
      ifc.beginCycle(now);
      ifc.drainCompletions(now, completed);
      if (!uncommitted.empty()) {
        ifc.notifyStoreCommit(uncommitted.front());
        uncommitted.erase(uncommitted.begin());
      }
      ifc.endCycle(now);
      ++now;
      if (uncommitted.empty() && ifc.quiesced()) return true;
    }
    return false;
  }

  Addr randomAddr(std::uint32_t pages) {
    return 0x4000'0000ull + rng.below(pages) * 4096 + rng.below(4096);
  }

  InterfaceConfig cfg;
  SystemConfig sys;
  energy::EnergyAccount ea;
  sim::RunStack stack;
  MemInterface& ifc;
  Rng rng;
  Cycle now = 0;
  SeqNum next_seq = 1;
  std::vector<SeqNum> completed;
  std::vector<SeqNum> uncommitted;
  std::uint64_t loads_submitted = 0;
};


class StressAllInterfaces : public ::testing::TestWithParam<int> {
 public:
  static InterfaceConfig config(int i) {
    switch (i) {
      case 0: return sim::presetBase1ldst();
      case 1: return sim::presetBase2ld1st();
      case 2: return sim::presetMalec();
      case 3: return sim::presetMalecWdu(8);
      case 4: return sim::presetMalecNoWaydet();
      default: return sim::presetMalec4ld2st();
    }
  }
};

TEST_P(StressAllInterfaces, RandomSoupDrainsCompletely) {
  Harness h(config(GetParam()), 1234 + GetParam());
  h.drive(3000, 0.25, 0.12, /*pages=*/64);
  EXPECT_TRUE(h.drain()) << "interface failed to quiesce";
  EXPECT_EQ(h.completed.size(), h.loads_submitted);
  // Every completion is a load we actually submitted, exactly once.
  std::vector<SeqNum> sorted = h.completed;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << "duplicate load completion";
}

TEST_P(StressAllInterfaces, PathologicalSinglePage) {
  // Every access on one page: maximal grouping, maximal bank conflicts.
  Harness h(config(GetParam()), 77);
  h.drive(1500, 0.5, 0.2, /*pages=*/1);
  EXPECT_TRUE(h.drain());
  EXPECT_EQ(h.completed.size(), h.loads_submitted);
}

TEST_P(StressAllInterfaces, PathologicalPagePerAccess) {
  // Page-per-access: zero grouping benefit, constant TLB churn and walks.
  Harness h(config(GetParam()), 99);
  h.drive(1500, 0.35, 0.1, /*pages=*/4096);
  EXPECT_TRUE(h.drain());
  EXPECT_EQ(h.completed.size(), h.loads_submitted);
}

TEST_P(StressAllInterfaces, StoreOnlyStream) {
  Harness h(config(GetParam()), 55);
  h.drive(2000, 0.0, 0.5, /*pages=*/8);
  EXPECT_TRUE(h.drain());
  EXPECT_EQ(h.loads_submitted, 0u);
  EXPECT_GE(h.ifc.stats().stores_submitted, 100u);
}

TEST_P(StressAllInterfaces, EnergyCountsStayConsistent) {
  Harness h(config(GetParam()), 31);
  h.drive(2000, 0.3, 0.15, /*pages=*/32);
  h.drain();
  const auto& s = h.ifc.stats();
  // Mode partition and hit/miss partition hold even under stress.
  EXPECT_EQ(s.reduced_accesses + s.conventional_accesses,
            s.load_l1_accesses + s.write_l1_accesses);
  EXPECT_EQ(s.load_l1_hits + s.load_l1_misses, s.load_l1_accesses);
  EXPECT_GT(h.ea.dynamicPj(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Configs, StressAllInterfaces,
                         ::testing::Range(0, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return StressAllInterfaces::config(info.param)
                               .name;
                         });

}  // namespace
}  // namespace malec::core
