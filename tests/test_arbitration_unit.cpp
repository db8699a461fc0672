#include "core/arbitration_unit.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace malec::core {
namespace {

using Action = ArbOutcome::Action;

ArbCandidate ld(std::size_t idx, Addr a) {
  return ArbCandidate{idx, a, 8, false};
}
ArbCandidate mbe(std::size_t idx, Addr a) {
  return ArbCandidate{idx, a, 64, true};
}

ArbitrationUnit makeArb(std::uint32_t buses = 3, std::uint32_t window = 3,
                        bool pair = true) {
  return ArbitrationUnit(
      ArbitrationUnit::Params{AddressLayout{}, buses, window, pair});
}

/// One group arbitrated into a fresh outcome.
ArbOutcome arbitrate(const ArbitrationUnit& arb,
                     const std::vector<ArbCandidate>& candidates) {
  ArbOutcome out;
  arb.arbitrate(candidates, out);
  return out;
}

// Page base chosen so line k of the page is at kPage + k*64; bank = k%4.
constexpr Addr kPage = 0x300 * 4096;

TEST(Arbitration, DistinctBanksAllWin) {
  ArbitrationUnit arb = makeArb();
  const auto out = arbitrate(arb,
      {ld(0, kPage + 0 * 64), ld(1, kPage + 1 * 64), ld(2, kPage + 2 * 64)});
  EXPECT_EQ(out.action[0], Action::kWinner);
  EXPECT_EQ(out.action[1], Action::kWinner);
  EXPECT_EQ(out.action[2], Action::kWinner);
  EXPECT_EQ(out.bank_conflicts, 0u);
}

TEST(Arbitration, SameBankDifferentLinesConflict) {
  ArbitrationUnit arb = makeArb();
  // Lines 0 and 4 both live in bank 0.
  const auto out =
      arbitrate(arb, {ld(0, kPage + 0 * 64), ld(1, kPage + 4 * 64)});
  EXPECT_EQ(out.action[0], Action::kWinner);
  EXPECT_EQ(out.action[1], Action::kHeld);
  EXPECT_EQ(out.bank_conflicts, 1u);
}

TEST(Arbitration, SameSubBlockPairMerges) {
  ArbitrationUnit arb = makeArb();
  // Two loads within the same 32-byte sub-block pair of line 0.
  const auto out =
      arbitrate(arb, {ld(0, kPage + 0), ld(1, kPage + 16)});
  EXPECT_EQ(out.action[0], Action::kWinner);
  EXPECT_EQ(out.action[1], Action::kMerged);
  EXPECT_EQ(out.winner_of[1], 0u);
}

TEST(Arbitration, DifferentPairsOfSameLineDoNotMerge) {
  ArbitrationUnit arb = makeArb();
  // Offsets 0 and 32 are in different sub-block pairs (but same line and
  // bank): the second load must wait.
  const auto out = arbitrate(arb, {ld(0, kPage + 0), ld(1, kPage + 32)});
  EXPECT_EQ(out.action[1], Action::kHeld);
}

TEST(Arbitration, SingleSubBlockModeHalvesMergeReach) {
  // Without the adjacent-pair read, merging needs the same 128-bit
  // sub-block (paper Sec. IV: pair reads double merge probability).
  ArbitrationUnit arb = makeArb(3, 3, /*pair=*/false);
  const auto same_sub = arbitrate(arb, {ld(0, kPage + 0), ld(1, kPage + 8)});
  EXPECT_EQ(same_sub.action[1], Action::kMerged);
  const auto next_sub = arbitrate(arb, {ld(0, kPage + 0), ld(1, kPage + 16)});
  EXPECT_EQ(next_sub.action[1], Action::kHeld);
}

TEST(Arbitration, MergeWindowLimitsDistance) {
  ArbitrationUnit arb = makeArb(/*buses=*/8, /*window=*/1);
  // Candidate 2 is 2 positions after winner 0: outside a window of 1, and
  // its bank is already claimed, so it holds.
  const auto out = arbitrate(arb,
      {ld(0, kPage + 0), ld(1, kPage + 1 * 64), ld(2, kPage + 16)});
  EXPECT_EQ(out.action[0], Action::kWinner);
  EXPECT_EQ(out.action[2], Action::kHeld);
}

TEST(Arbitration, MergeDisabledHolds) {
  ArbitrationUnit arb = makeArb(3, /*window=*/0);
  const auto out = arbitrate(arb, {ld(0, kPage + 0), ld(1, kPage + 16)});
  EXPECT_EQ(out.action[1], Action::kHeld);
}

TEST(Arbitration, ResultBusLimit) {
  ArbitrationUnit arb = makeArb(/*buses=*/2);
  const auto out = arbitrate(arb, {ld(0, kPage + 0 * 64),
                                   ld(1, kPage + 1 * 64),
                                   ld(2, kPage + 2 * 64)});
  EXPECT_EQ(out.action[0], Action::kWinner);
  EXPECT_EQ(out.action[1], Action::kWinner);
  EXPECT_EQ(out.action[2], Action::kHeld);
  EXPECT_EQ(out.bus_rejects, 1u);
}

TEST(Arbitration, MergedLoadsConsumeBuses) {
  ArbitrationUnit arb = makeArb(/*buses=*/2);
  // Winner + merged partner exhaust both buses; the third load holds.
  const auto out = arbitrate(arb,
      {ld(0, kPage + 0), ld(1, kPage + 16), ld(2, kPage + 1 * 64)});
  EXPECT_EQ(out.action[0], Action::kWinner);
  EXPECT_EQ(out.action[1], Action::kMerged);
  EXPECT_EQ(out.action[2], Action::kHeld);
}

TEST(Arbitration, MbeServicedWhenBankFree) {
  ArbitrationUnit arb = makeArb();
  const auto out =
      arbitrate(arb, {ld(0, kPage + 0 * 64), mbe(1, kPage + 1 * 64)});
  EXPECT_EQ(out.action[1], Action::kWinner);
}

TEST(Arbitration, MbeBlockedByBankConflict) {
  ArbitrationUnit arb = makeArb();
  // MBE targets bank 0, already claimed by the load.
  const auto out =
      arbitrate(arb, {ld(0, kPage + 0 * 64), mbe(1, kPage + 4 * 64)});
  EXPECT_EQ(out.action[1], Action::kHeld);
  EXPECT_EQ(out.bank_conflicts, 1u);
}

TEST(Arbitration, MbeNeedsNoResultBus) {
  ArbitrationUnit arb = makeArb(/*buses=*/1);
  const auto out =
      arbitrate(arb, {ld(0, kPage + 0 * 64), mbe(1, kPage + 1 * 64)});
  EXPECT_EQ(out.action[0], Action::kWinner);
  EXPECT_EQ(out.action[1], Action::kWinner);
}

TEST(Arbitration, EmptyGroupIsEmptyOutcome) {
  ArbitrationUnit arb = makeArb();
  const auto out = arbitrate(arb, {});
  EXPECT_EQ(out.bank_conflicts, 0u);
  EXPECT_EQ(out.bus_rejects, 0u);
}

// The hot path reuses one outcome for every group: a group arbitrated into
// an outcome that held a larger group must read exactly as a fresh one.
TEST(Arbitration, ReusedOutcomeMatchesAFreshOne) {
  ArbitrationUnit arb = makeArb();
  ArbOutcome reused;
  arb.arbitrate({ld(0, kPage + 0 * 64), ld(1, kPage + 0 * 64 + 8),
                 ld(2, kPage + 4 * 64), ld(3, kPage + 1 * 64),
                 mbe(4, kPage + 2 * 64)},
                reused);
  const std::vector<ArbCandidate> small = {ld(0, kPage + 4 * 64),
                                           ld(1, kPage + 0 * 64)};
  arb.arbitrate(small, reused);
  const ArbOutcome fresh = arbitrate(arb, small);
  for (std::size_t i = 0; i < small.size(); ++i)
    EXPECT_EQ(reused.action[i], fresh.action[i]) << i;
  EXPECT_EQ(reused.action[1], Action::kHeld);  // bank 0 taken by line 4
  EXPECT_EQ(reused.bank_conflicts, fresh.bank_conflicts);
  EXPECT_EQ(reused.bus_rejects, fresh.bus_rejects);
}

// Property sweep over bus counts: winners+merged never exceed the buses,
// at most one access per bank, and merged loads always point at a winner.
class ArbProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ArbProperty, StructuralInvariants) {
  const std::uint32_t buses = GetParam();
  ArbitrationUnit arb = makeArb(buses);
  Rng rng(buses * 7 + 1);
  const AddressLayout L;
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<ArbCandidate> cands;
    const std::size_t n = 1 + rng.below(6);
    for (std::size_t i = 0; i < n; ++i)
      cands.push_back(ld(i, kPage + rng.below(4096)));
    const auto out = arbitrate(arb, cands);

    std::uint32_t selected = 0;
    std::vector<int> bank_access(4, 0);
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (out.action[i] == Action::kWinner) {
        ++selected;
        ++bank_access[L.bankOf(cands[i].vaddr)];
      } else if (out.action[i] == Action::kMerged) {
        ++selected;
        const std::size_t w = out.winner_of[i];
        ASSERT_LT(w, cands.size());
        EXPECT_EQ(out.action[w], Action::kWinner);
        EXPECT_EQ(L.lineAddr(cands[w].vaddr), L.lineAddr(cands[i].vaddr));
        EXPECT_LE(i - w, 3u);  // merge window
      }
    }
    EXPECT_LE(selected, buses);
    for (int b : bank_access) EXPECT_LE(b, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(BusSweep, ArbProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

}  // namespace
}  // namespace malec::core
