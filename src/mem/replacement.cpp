#include "mem/replacement.h"

#include "ckpt/state_io.h"
#include "common/check.h"

namespace malec::mem {

// --- LRU ---------------------------------------------------------------

LruPolicy::LruPolicy(std::uint32_t sets, std::uint32_t ways)
    : ways_(ways), stamp_(static_cast<std::size_t>(sets) * ways, 0) {
  MALEC_CHECK(sets > 0 && ways > 0 && ways <= 64);
}

std::uint32_t LruPolicy::victim(std::uint32_t set, std::uint64_t allowed_mask) {
  MALEC_CHECK_MSG(allowed_mask != 0, "no allowed ways for victim selection");
  std::uint32_t best = 0;
  std::uint64_t best_stamp = ~0ull;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if ((allowed_mask & (1ull << w)) == 0) continue;
    const std::uint64_t s = stamp_[static_cast<std::size_t>(set) * ways_ + w];
    if (s <= best_stamp) {
      best_stamp = s;
      best = w;
    }
  }
  return best;
}

void LruPolicy::saveState(ckpt::StateWriter& w) const {
  w.u64(tick_);
  w.u64(stamp_.size());
  for (const std::uint64_t s : stamp_) w.u64(s);
}

void LruPolicy::loadState(ckpt::StateReader& r) {
  tick_ = r.u64();
  MALEC_CHECK_MSG(r.u64() == stamp_.size(),
                  "LRU state does not fit this geometry");
  for (std::uint64_t& s : stamp_) s = r.u64();
}

// --- Random -----------------------------------------------------------

RandomPolicy::RandomPolicy(std::uint32_t sets, std::uint32_t ways, Rng rng)
    : ways_(ways), rng_(rng) {
  MALEC_CHECK(sets > 0 && ways > 0 && ways <= 64);
}

void RandomPolicy::touch(std::uint32_t, std::uint32_t) {}
void RandomPolicy::fill(std::uint32_t, std::uint32_t) {}

std::uint32_t RandomPolicy::victim(std::uint32_t, std::uint64_t allowed_mask) {
  MALEC_CHECK_MSG(allowed_mask != 0, "no allowed ways for victim selection");
  std::uint32_t candidates[64];
  std::uint32_t n = 0;
  for (std::uint32_t w = 0; w < ways_; ++w)
    if (allowed_mask & (1ull << w)) candidates[n++] = w;
  return candidates[rng_.below(n)];
}

void RandomPolicy::saveState(ckpt::StateWriter& w) const {
  w.u64(rng_.state());
}

void RandomPolicy::loadState(ckpt::StateReader& r) { rng_.setState(r.u64()); }

// --- Second chance ------------------------------------------------------

SecondChancePolicy::SecondChancePolicy(std::uint32_t sets, std::uint32_t ways)
    : ways_(ways),
      ref_(static_cast<std::size_t>(sets) * ways, 0),
      hand_(sets, 0) {
  MALEC_CHECK(sets > 0 && ways > 0);
}

void SecondChancePolicy::touch(std::uint32_t set, std::uint32_t way) {
  ref_[static_cast<std::size_t>(set) * ways_ + way] = 1;
}

void SecondChancePolicy::fill(std::uint32_t set, std::uint32_t way) {
  // Insert with the reference bit CLEAR: a fresh entry earns its second
  // chance only once re-referenced. This protects established hot entries
  // (the property the uTLB relies on, paper Sec. V) from insertion bursts.
  ref_[static_cast<std::size_t>(set) * ways_ + way] = 0;
}

std::uint32_t SecondChancePolicy::victim(std::uint32_t set,
                                         std::uint64_t allowed_mask) {
  MALEC_CHECK_MSG(allowed_mask != 0, "no allowed ways for victim selection");
  std::uint32_t& hand = hand_[set];
  // Two sweeps suffice: the first clears reference bits, the second finds a
  // zero. Skip disallowed ways entirely.
  for (std::uint32_t sweep = 0; sweep < 2 * ways_ + 1; ++sweep) {
    const std::uint32_t w = hand;
    hand = (hand + 1) % ways_;
    if ((allowed_mask & (1ull << w)) == 0) continue;
    std::uint8_t& r = ref_[static_cast<std::size_t>(set) * ways_ + w];
    if (r == 0) return w;
    r = 0;
  }
  // All allowed ways were referenced twice around: take the current hand.
  for (std::uint32_t w = 0; w < ways_; ++w)
    if (allowed_mask & (1ull << w)) return w;
  MALEC_CHECK(false);
  return 0;
}

void SecondChancePolicy::saveState(ckpt::StateWriter& w) const {
  w.u64(ref_.size());
  for (const std::uint8_t b : ref_) w.u8(b);
  w.u64(hand_.size());
  for (const std::uint32_t h : hand_) w.u32(h);
}

void SecondChancePolicy::loadState(ckpt::StateReader& r) {
  MALEC_CHECK_MSG(r.u64() == ref_.size(),
                  "second-chance state does not fit this geometry");
  for (std::uint8_t& b : ref_) b = r.u8();
  MALEC_CHECK_MSG(r.u64() == hand_.size(),
                  "second-chance state does not fit this geometry");
  // victim() shifts by a hand and indexes its set's reference bits with it.
  for (std::uint32_t& h : hand_) {
    h = r.u32();
    MALEC_CHECK_MSG(h < ways_,
                    "second-chance clock hand is not below the way count");
  }
}

std::unique_ptr<ReplacementPolicy> makePolicy(ReplacementKind kind,
                                              std::uint32_t sets,
                                              std::uint32_t ways, Rng rng) {
  switch (kind) {
    case ReplacementKind::kRandom:
      // lint:allow(hot-alloc: construction-time factory — every call site is a ctor init-list)
      return std::make_unique<RandomPolicy>(sets, ways, rng);
    case ReplacementKind::kSecondChance:
      // lint:allow(hot-alloc: construction-time factory — every call site is a ctor init-list)
      return std::make_unique<SecondChancePolicy>(sets, ways);
  }
  MALEC_CHECK(false);
  return nullptr;
}

}  // namespace malec::mem
