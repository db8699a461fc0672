// The L1 miss path, driven through core::L1Backend: L2 and DRAM latency,
// the merge of a miss onto its line's fill in flight, the install and the
// eviction it causes, and the dirty state of stores and their write-backs.
#include "core/l1_backend.h"

#include <gtest/gtest.h>

#include "energy/energy_account.h"

namespace malec::core {
namespace {

constexpr Cycle kL2 = 12;    ///< Table II L2 latency
constexpr Cycle kDram = 54;  ///< Table II DRAM latency behind the L2
constexpr Cycle kL1 = 2;     ///< a load's delivery on top of its fill

/// A Base1ldst back end on Table II's system (a 128-set 4-way L1, a
/// 1024-set 16-way L2, 64-byte lines), driven with physical addresses:
/// each access's translation maps its page to itself. A baseline never
/// determines ways, so a line may fill any L1 way.
struct Fixture {
  energy::EnergyAccount ea;
  SystemConfig sys;
  L1Backend be{baseline(), sys, ea};
  /// Addresses this far apart share an L1 set.
  Addr l1_stride = Addr{sys.layout.l1Sets()} * sys.layout.lineBytes();
  /// Addresses this far apart share an L2 set (and so an L1 set).
  Addr l2_stride = mem::kL2Bytes / mem::kL2Ways;

  static InterfaceConfig baseline() {
    InterfaceConfig c;
    c.kind = InterfaceKind::kBase1LdSt;
    return c;
  }
  [[nodiscard]] TranslationEngine::Result identity(Addr paddr) const {
    TranslationEngine::Result tr;
    tr.ppage = sys.layout.pageId(paddr);
    return tr;
  }
  /// Data-ready cycle of a load of `paddr` at `now`.
  Cycle load(Addr paddr, Cycle now) {
    return be.load(paddr, identity(paddr), now);
  }
  void store(Addr paddr, Cycle now) {
    be.write(paddr, identity(paddr), now);
  }
  [[nodiscard]] std::uint64_t evictions() const {
    return ea.eventCount("l1.line_read");
  }

  /// Miss four other lines of `a`'s L1 set at `now`: `a` leaves the 4-way
  /// L1 when it is the set's least recently used line.
  void evictFromL1(Addr a, Cycle now) {
    for (Addr i = 1; i <= 4; ++i) load(a + i * l1_stride, now);
  }

  /// Push the L1-resident `a` out of the L2 but not the L1 (sixteen misses
  /// to its L2 set, each followed by a hit that keeps `a` the L1 set's most
  /// recent line), then out of the L1, all at `now`. Returns whether the
  /// next miss of `a` is served by the L2: only the L1 eviction of a dirty
  /// line writes it back there.
  bool writtenBack(Addr a, Cycle now) {
    for (Addr i = 1; i <= mem::kL2Ways; ++i) {
      load(a + i * l2_stride, now);
      EXPECT_EQ(load(a, now), now + kL1) << "`a` left the L1 early";
    }
    evictFromL1(a, now);
    const Cycle later = now + 1000;
    const Cycle ready = load(a, later);
    EXPECT_TRUE(ready == later + kL2 + kL1 ||
                ready == later + kL2 + kDram + kL1);
    return ready == later + kL2 + kL1;
  }
};

TEST(MemoryHierarchy, L2MissCostsDramLatency) {
  Fixture f;
  EXPECT_EQ(f.load(0x1000, 100), 100 + kL2 + kDram + kL1);
  EXPECT_EQ(f.load(0x1000, 200), 200 + kL1);  // the miss installed the line
}

TEST(MemoryHierarchy, L2HitCostsL2LatencyOnly) {
  Fixture f;
  (void)f.load(0x2000, 0);  // fills the L2 and the L1
  f.evictFromL1(0x2000, 100);
  EXPECT_EQ(f.load(0x2000, 200), 200 + kL2 + kL1);
}

TEST(MemoryHierarchy, MissMergesOntoItsLinesFillInFlight) {
  // A line evicted inside its own fill window and missed again completes
  // with the fill already on its way, wherever in the line the load reads.
  Fixture f;
  const Cycle ready = f.load(0x3000, 10);
  f.evictFromL1(0x3000, 11);
  EXPECT_EQ(f.load(0x3008, 12), ready);
}

TEST(MemoryHierarchy, MergeExpiresWhenTheFillArrives) {
  Fixture f;
  const Cycle arrival = f.load(0x3000, 10) - kL1;
  f.evictFromL1(0x3000, 11);
  // From its arrival cycle on, the fill is complete: the next miss of the
  // line is a fresh one, served by the L2.
  EXPECT_EQ(f.load(0x3000, arrival), arrival + kL2 + kL1);
}

TEST(MemoryHierarchy, MergeFindsItsLineAfterExpiredFillsCompact) {
  // Several fills in flight; the oldest expires and is compacted out of
  // the table by the next miss, and later merges still find their own
  // line's fill. a, b, c and d sit in four different L1 sets.
  Fixture f;
  const Addr a = 0x1000, b = 0x1040, c = 0x1080, d = 0x10c0;
  const Cycle ra = f.load(a, 0);  // arrives at 66
  const Cycle rb = f.load(b, 10);
  const Cycle rc = f.load(c, 20);
  f.evictFromL1(a, 21);
  f.evictFromL1(b, 21);
  f.evictFromL1(c, 21);
  (void)f.load(d, ra - kL1);  // drops a's fill
  EXPECT_EQ(f.load(c + 16, 70), rc);
  EXPECT_EQ(f.load(b + 32, 71), rb);
  EXPECT_EQ(f.load(a, 72), 72 + kL2 + kL1);
}

TEST(MemoryHierarchy, MissInstallsTheLineAndEvictsTheLru) {
  Fixture f;
  const Addr a = 0x6000;
  (void)f.load(a + 0x10, 0);
  EXPECT_EQ(f.ea.eventCount("l1.line_write"), 1u);
  // Fill the rest of the set, then force an L1 set conflict.
  for (Addr i = 1; i <= 3; ++i) (void)f.load(a + i * f.l1_stride, i * 100);
  EXPECT_EQ(f.evictions(), 0u);
  (void)f.load(a + 4 * f.l1_stride, 400);
  EXPECT_EQ(f.evictions(), 1u);
  EXPECT_EQ(f.ea.eventCount("l1.line_write"), 5u);
  // The victim was the least recently used line, a.
  for (Addr i = 1; i <= 4; ++i)
    EXPECT_EQ(f.load(a + i * f.l1_stride, 500), 500 + kL1) << i;
  EXPECT_EQ(f.load(a, 600), 600 + kL2 + kL1);
}

TEST(MemoryHierarchy, StoreMissMarksLineDirty) {
  Fixture f;
  f.store(0x4000, 0);
  EXPECT_EQ(f.be.stats().write_l1_misses, 1u);
  EXPECT_TRUE(f.writtenBack(0x4000, 100));
  // A load miss leaves its line clean: nothing is written back.
  Fixture clean;
  (void)clean.load(0x4000, 0);
  EXPECT_FALSE(clean.writtenBack(0x4000, 100));
}

TEST(MemoryHierarchy, StoreMergeOntoPendingLineMarksDirty) {
  Fixture f;
  (void)f.load(0x5000, 0);
  f.evictFromL1(0x5000, 1);
  f.store(0x5010, 2);  // merges onto the fill, re-installs and dirties
  EXPECT_EQ(f.be.stats().write_l1_misses, 1u);
  EXPECT_TRUE(f.writtenBack(0x5000, 100));
}

TEST(MemoryHierarchy, MergeAfterEvictionReinstallsTheLine) {
  // A line evicted inside its own fill window and missed again: the miss
  // merges onto the outstanding fill, the line is installed again, and
  // that install displaces the set's least recently used line.
  Fixture f;
  const Addr a = 0x8000;
  const Cycle ready = f.load(a, 0);
  f.evictFromL1(a, 1);
  EXPECT_EQ(f.evictions(), 1u);
  EXPECT_EQ(f.load(a, 10), ready);
  EXPECT_EQ(f.evictions(), 2u);
  EXPECT_EQ(f.load(a, 11), 11 + kL1);
  for (Addr i = 2; i <= 4; ++i)
    EXPECT_EQ(f.load(a + i * f.l1_stride, 12), 12 + kL1) << i;
  // The displaced line, missed after its own fill arrived.
  EXPECT_EQ(f.load(a + f.l1_stride, 200), 200 + kL2 + kL1);
}

}  // namespace
}  // namespace malec::core
