#include "core/input_buffer.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

namespace malec::core {
namespace {

MemOp load(SeqNum seq, Addr a) { return MemOp{seq, true, a, 8}; }
MemOp mbe(Addr a) { return MemOp{0, false, a, 64}; }

constexpr Addr kPageA = 0x100 * 4096;
constexpr Addr kPageB = 0x200 * 4096;

/// remove()'s mask marking the entries at `indices`.
std::uint64_t entries(std::initializer_list<std::size_t> indices) {
  std::uint64_t mask = 0;
  for (const std::size_t i : indices) mask |= std::uint64_t{1} << i;
  return mask;
}

InputBuffer makeIb(std::uint32_t carry = 2, std::uint32_t agu = 3,
                   std::uint32_t comparators = 5) {
  return InputBuffer(carry, agu, comparators, AddressLayout{});
}

/// The head's page group, collected into a fresh vector.
std::vector<std::size_t> groupOf(const InputBuffer& ib, std::size_t head,
                                 Cycle now) {
  std::vector<std::size_t> g;
  ib.group(head, now, g);
  return g;
}

TEST(InputBuffer, LoadSpaceIsCarryPlusAgu) {
  InputBuffer ib = makeIb(2, 3);
  for (SeqNum i = 0; i < 5; ++i) {
    EXPECT_TRUE(ib.hasLoadSpace());
    ib.addLoad(load(i, kPageA + i * 8), 0);
  }
  EXPECT_FALSE(ib.hasLoadSpace());
  EXPECT_EQ(ib.loadCount(), 5u);
}

TEST(InputBuffer, SingleMbeSlot) {
  InputBuffer ib = makeIb();
  EXPECT_TRUE(ib.hasMbeSpace());
  ib.addMbe(mbe(kPageA), 0);
  EXPECT_FALSE(ib.hasMbeSpace());
}

TEST(InputBuffer, HeadIsOldestLoad) {
  InputBuffer ib = makeIb();
  ib.addLoad(load(1, kPageB), 0);
  ib.addLoad(load(2, kPageA), 0);
  const auto head = ib.selectHead(0);
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(ib.op(*head).seq, 1u);
}

TEST(InputBuffer, MbeIsLowestPriority) {
  InputBuffer ib = makeIb();
  ib.addMbe(mbe(kPageB), 0);
  ib.addLoad(load(1, kPageA), 0);
  const auto head = ib.selectHead(0);
  ASSERT_TRUE(head.has_value());
  EXPECT_FALSE(ib.isMbe(*head));
  // With only the MBE present it becomes the head.
  ib.remove(entries({*head}));
  const auto head2 = ib.selectHead(0);
  ASSERT_TRUE(head2.has_value());
  EXPECT_TRUE(ib.isMbe(*head2));
}

TEST(InputBuffer, DeferredEntriesNotSelectable) {
  InputBuffer ib = makeIb();
  ib.addLoad(load(1, kPageA), 0);
  ib.addLoad(load(2, kPageB), 0);
  ib.defer(0, 10);  // entry 0 waits for a page walk
  const auto head = ib.selectHead(5);
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(ib.op(*head).seq, 2u);
  // After the walk completes, priority order is restored.
  const auto later = ib.selectHead(10);
  ASSERT_TRUE(later.has_value());
  EXPECT_EQ(ib.op(*later).seq, 1u);
}

TEST(InputBuffer, EmptyOrAllDeferredYieldsNoHead) {
  InputBuffer ib = makeIb();
  EXPECT_FALSE(ib.selectHead(0).has_value());
  ib.addLoad(load(1, kPageA), 0);
  ib.defer(0, 100);
  EXPECT_FALSE(ib.selectHead(50).has_value());
}

TEST(InputBuffer, GroupCollectsSamePageEntries) {
  InputBuffer ib = makeIb();
  ib.addLoad(load(1, kPageA), 0);
  ib.addLoad(load(2, kPageB), 0);
  ib.addLoad(load(3, kPageA + 64), 0);
  ib.addMbe(mbe(kPageA + 128), 0);
  const auto head = ib.selectHead(0);
  const auto group = groupOf(ib, *head, 0);
  // Loads 1 and 3 plus the MBE share page A; load 2 does not.
  ASSERT_EQ(group.size(), 3u);
  EXPECT_EQ(ib.op(group[0]).seq, 1u);
  EXPECT_EQ(ib.op(group[1]).seq, 3u);
  EXPECT_TRUE(ib.isMbe(group[2]));  // MBE sorted last
}

TEST(InputBuffer, ComparatorLimitBoundsGroup) {
  InputBuffer ib(8, 8, /*comparators=*/2, AddressLayout{});
  for (SeqNum i = 0; i < 6; ++i) ib.addLoad(load(i, kPageA + i * 8), 0);
  const auto group = groupOf(ib, 0, 0);
  // Head + at most 2 compared entries.
  EXPECT_LE(group.size(), 3u);
}

TEST(InputBuffer, RemoveKeepsOthersIntact) {
  InputBuffer ib = makeIb();
  ib.addLoad(load(1, kPageA), 0);
  ib.addLoad(load(2, kPageB), 0);
  ib.addLoad(load(3, kPageA + 64), 0);
  ib.remove(entries({0, 2}));
  ASSERT_EQ(ib.size(), 1u);
  EXPECT_EQ(ib.op(0).seq, 2u);
}

TEST(InputBuffer, RemoveKeepsTrackOfTheMbeSlot) {
  InputBuffer ib = makeIb();
  ib.addLoad(load(1, kPageA), 0);
  ib.addLoad(load(2, kPageB), 0);
  ib.addMbe(mbe(kPageA + 128), 0);
  ib.addLoad(load(3, kPageA + 64), 0);
  ib.remove(entries({1, 0}));  // both entries below the MBE, in any order
  ASSERT_EQ(ib.size(), 2u);
  EXPECT_TRUE(ib.isMbe(0));
  EXPECT_EQ(ib.op(1).seq, 3u);
  EXPECT_FALSE(ib.hasMbeSpace());
  ib.remove(entries({0}));  // the MBE itself
  EXPECT_TRUE(ib.hasMbeSpace());
  ASSERT_EQ(ib.size(), 1u);
  EXPECT_EQ(ib.op(0).seq, 3u);
}

TEST(InputBuffer, NextReadyCycleIsEarliestNotBefore) {
  InputBuffer ib = makeIb();
  EXPECT_EQ(ib.nextReadyCycle(), kNever);
  ib.addLoad(load(1, kPageA), 3);
  ib.addLoad(load(2, kPageB), 3);
  ib.defer(0, 40);
  ib.defer(1, 25);
  EXPECT_EQ(ib.nextReadyCycle(), 25u);
}

TEST(InputBuffer, OverCommittedCountsCarriedLoadsOnly) {
  InputBuffer ib = makeIb(/*carry=*/2, /*agu=*/3);
  for (SeqNum i = 0; i < 3; ++i) ib.addLoad(load(i, kPageA + i * 8), 0);
  // Same-cycle arrivals are AGU outputs, not held state.
  EXPECT_FALSE(ib.overCommitted(0));
  // One cycle later all three are carried: exceeds the two carry slots.
  EXPECT_TRUE(ib.overCommitted(1));
  ib.remove(entries({0}));
  EXPECT_FALSE(ib.overCommitted(1));
}

// --- ORDER CONTRACT regression tests (see input_buffer.cpp) ------------------
// The packed arrays are scanned low-to-high everywhere; these pin the three
// invariants that make that equivalent to explicit priority sorting, so a
// future "optimisation" that reorders a scan fails here instead of silently
// changing grouping decisions (and with them every downstream counter).

TEST(InputBuffer, OrderContractIndexOrderIsAgeOrder) {
  // Invariant 1: removals compact without reordering, so index order stays
  // insertion (age) order and group() needs no sort.
  InputBuffer ib = makeIb(/*carry=*/4, /*agu=*/4);
  for (SeqNum i = 0; i < 6; ++i) ib.addLoad(load(i, kPageA + i * 8), 0);
  ib.remove(entries({1, 4}));
  ASSERT_EQ(ib.size(), 4u);
  const SeqNum expect[] = {0, 2, 3, 5};
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(ib.op(i).seq, expect[i]);
  // The group is emitted in index order = age order, head first.
  const auto group = groupOf(ib, 0, 0);
  ASSERT_EQ(group.size(), 4u);
  for (std::size_t i = 1; i < group.size(); ++i)
    EXPECT_LT(group[i - 1], group[i]);
}

TEST(InputBuffer, OrderContractComparatorBudgetSpentInIndexOrder) {
  // Invariant 3: comparators wire to storage slots in index order and are
  // consumed per valid entry BEFORE the ready check. A deferred (not-ready)
  // early entry therefore burns budget and can push a ready same-page LATE
  // entry out of the group.
  InputBuffer ib(8, 8, /*comparators=*/2, AddressLayout{});
  ib.addLoad(load(0, kPageA), 0);       // head
  ib.addLoad(load(1, kPageB), 0);       // deferred below: consumes comparator
  ib.addLoad(load(2, kPageB), 0);       // consumes the second comparator
  ib.addLoad(load(3, kPageA + 8), 0);   // ready, same page — but no budget
  ib.defer(1, 100);
  const auto group = groupOf(ib, 0, 0);
  ASSERT_EQ(group.size(), 1u);  // head only: seq 3 was never compared
  EXPECT_EQ(ib.op(group[0]).seq, 0u);
}

TEST(InputBuffer, OrderContractArrivalPrefixEndsOverCommittedScan) {
  // Invariant 2: arrival_ is non-decreasing in index order, so the carried
  // count is the prefix before the first same-cycle arrival.
  InputBuffer ib = makeIb(/*carry=*/1, /*agu=*/3);
  ib.addLoad(load(0, kPageA), 0);       // carried by cycle 1
  ib.addLoad(load(1, kPageA + 8), 1);   // arrives at the probe cycle
  ib.addLoad(load(2, kPageA + 16), 1);  // arrives at the probe cycle
  // Only the one pre-cycle-1 load counts against the single carry slot.
  EXPECT_FALSE(ib.overCommitted(1));
  // One cycle later the whole prefix is carried: 3 > 1.
  EXPECT_TRUE(ib.overCommitted(2));
}

TEST(InputBufferDeath, LoadOverflowAborts) {
  InputBuffer ib = makeIb(0, 1);
  ib.addLoad(load(1, kPageA), 0);
  EXPECT_DEATH(ib.addLoad(load(2, kPageA), 0), "overflow");
}

TEST(InputBufferDeath, CapacityBeyondTheRemovalMaskAborts) {
  // 60 carried + 4 AGU loads + the MBE slot = 65 entries > 64 mask bits.
  EXPECT_DEATH(InputBuffer(60, 4, 5, AddressLayout{}), "removal mask");
}

TEST(InputBufferDeath, SecondMbeAborts) {
  InputBuffer ib = makeIb();
  ib.addMbe(mbe(kPageA), 0);
  EXPECT_DEATH(ib.addMbe(mbe(kPageB), 0), "second MBE");
}

}  // namespace
}  // namespace malec::core
