#include "mem/replacement.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

namespace malec::mem {
namespace {

TEST(Lru, EvictsLeastRecentlyUsed) {
  LruPolicy lru(1, 4);
  for (std::uint32_t w = 0; w < 4; ++w) lru.fill(0, w);
  lru.touch(0, 0);  // 1 is now oldest
  EXPECT_EQ(lru.victim(0, 0xF), 1u);
  lru.touch(0, 1);
  EXPECT_EQ(lru.victim(0, 0xF), 2u);
}

TEST(Lru, RespectsAllowedMask) {
  LruPolicy lru(1, 4);
  for (std::uint32_t w = 0; w < 4; ++w) lru.fill(0, w);
  // Way 0 is the LRU but disallowed.
  EXPECT_EQ(lru.victim(0, 0xE), 1u);
  EXPECT_EQ(lru.victim(0, 0x8), 3u);
}

TEST(Lru, SetsAreIndependent) {
  LruPolicy lru(2, 2);
  lru.fill(0, 0);
  lru.fill(0, 1);
  lru.fill(1, 1);
  lru.fill(1, 0);
  EXPECT_EQ(lru.victim(0, 0x3), 0u);
  EXPECT_EQ(lru.victim(1, 0x3), 1u);
}

TEST(Random, OnlyPicksAllowedWays) {
  RandomPolicy rnd(1, 8, Rng(5));
  for (int i = 0; i < 200; ++i) {
    const std::uint32_t v = rnd.victim(0, 0b10100100);
    EXPECT_TRUE(v == 2 || v == 5 || v == 7);
  }
}

TEST(Random, CoversAllAllowedWays) {
  RandomPolicy rnd(1, 4, Rng(5));
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rnd.victim(0, 0xF));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(SecondChance, GivesReferencedEntriesASecondPass) {
  SecondChancePolicy sc(1, 4);
  for (std::uint32_t w = 0; w < 4; ++w) sc.fill(0, w);
  // All referenced: the first victim pass clears bits; way 0 is picked
  // after a full sweep.
  EXPECT_EQ(sc.victim(0, 0xF), 0u);
  // Now touch way 1; next victim should skip it.
  sc.touch(0, 1);
  EXPECT_EQ(sc.victim(0, 0xF), 2u);
}

TEST(SecondChance, HotEntrySurvives) {
  SecondChancePolicy sc(1, 4);
  for (std::uint32_t w = 0; w < 4; ++w) sc.fill(0, w);
  // Way 2 is touched before every eviction decision: it must never be the
  // victim (the property the uTLB relies on to keep hot pages resident).
  for (int round = 0; round < 12; ++round) {
    sc.touch(0, 2);
    EXPECT_NE(sc.victim(0, 0xF), 2u);
  }
}

TEST(SecondChance, RespectsMask) {
  SecondChancePolicy sc(1, 4);
  for (std::uint32_t w = 0; w < 4; ++w) sc.fill(0, w);
  for (int i = 0; i < 8; ++i) {
    const std::uint32_t v = sc.victim(0, 0b0110);
    EXPECT_TRUE(v == 1 || v == 2);
  }
}

TEST(Factory, CreatesAllKinds) {
  EXPECT_NE(makePolicy(ReplacementKind::kRandom, 2, 2, Rng(1)), nullptr);
  EXPECT_NE(makePolicy(ReplacementKind::kSecondChance, 2, 2, Rng(1)),
            nullptr);
}

TEST(Factory, SupportsSixtyFourWays) {
  // The 64-entry fully-associative TLB uses ways == 64.
  auto p = makePolicy(ReplacementKind::kRandom, 1, 64, Rng(1));
  for (std::uint32_t w = 0; w < 64; ++w) p->fill(0, w);
  const std::uint32_t v = p->victim(0, ~0ull);
  EXPECT_LT(v, 64u);
  EXPECT_EQ(p->victim(0, 1ull << 63), 63u);
}

TEST(ReplacementDeath, EmptyMaskAborts) {
  LruPolicy lru(1, 2);
  EXPECT_DEATH((void)lru.victim(0, 0), "no allowed ways");
}

// Property: every policy returns a victim within the mask.
TEST(PolicyProperty, VictimAlwaysInMask) {
  std::unique_ptr<ReplacementPolicy> policies[] = {
      std::make_unique<LruPolicy>(4, 8),
      makePolicy(ReplacementKind::kRandom, 4, 8, Rng(9)),
      makePolicy(ReplacementKind::kSecondChance, 4, 8, Rng(9))};
  for (const auto& p : policies) {
    Rng rng(123);
    for (int i = 0; i < 500; ++i) {
      const std::uint32_t set = static_cast<std::uint32_t>(rng.below(4));
      const std::uint64_t mask = rng.below(255) + 1;
      const std::uint32_t v = p->victim(set, mask);
      EXPECT_NE(mask & (1ull << v), 0u);
      if (rng.chance(0.5)) p->touch(set, v);
      if (rng.chance(0.3)) p->fill(set, v);
    }
  }
}

}  // namespace
}  // namespace malec::mem
