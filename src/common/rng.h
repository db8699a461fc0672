// Deterministic pseudo-random number generation.
//
// Every stochastic component of the simulator (trace generators, random
// replacement, page-table hashing) draws from a seeded Xorshift64* stream so
// that all experiments are bit-reproducible across runs and platforms.
#pragma once

#include <cstdint>

#include "common/check.h"

namespace malec {

/// Xorshift64* generator. Small, fast, and plenty good enough for workload
/// synthesis; NOT for cryptography.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull)
      : state_(seed ? seed : 0x9E3779B97F4A7C15ull) {}

  /// Next raw 64-bit value.
  std::uint64_t next() {
    std::uint64_t x = state_;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    state_ = x;
    return x * 0x2545F4914F6CDD1Dull;
  }

  /// Uniform integer in [0, bound).
  std::uint64_t below(std::uint64_t bound) {
    MALEC_DCHECK(bound > 0);
    // Modulo bias is negligible for the bounds used here (all << 2^64).
    return next() % bound;
  }

  /// Bernoulli draw with probability p: succeeds when the top 53 bits of
  /// next() times 2^-53, a uniform double in [0, 1), fall below p. They are
  /// compared with p times 2^53 instead, which is exact (a power-of-two
  /// scale) and keeps the multiply off the path from next() to the branch
  /// on the outcome.
  bool chance(double p) {
    return static_cast<double>(next() >> 11) < p * 0x1p53;
  }

  /// Geometric-ish draw: number of successes before failure, capped.
  std::uint32_t geometric(double p_continue, std::uint32_t cap) {
    std::uint32_t n = 0;
    while (n < cap && chance(p_continue)) ++n;
    return n;
  }

  /// Derive an independent stream (for per-component seeding).
  [[nodiscard]] Rng split(std::uint64_t salt) const {
    return Rng(state_ ^ (salt * 0xBF58476D1CE4E5B9ull) ^ 0x94D049BB133111EBull);
  }

  /// Raw generator state, for checkpoint/restore: setState(state()) makes
  /// another Rng continue this one's stream exactly. A zero state, which no
  /// stream reaches, is refused in every build: xorshift64* would stay at 0.
  [[nodiscard]] std::uint64_t state() const { return state_; }
  void setState(std::uint64_t s) {
    MALEC_CHECK_MSG(s != 0,
                    "RNG state 0 is not a xorshift64* state — the restored "
                    "checkpoint is corrupt");
    state_ = s;
  }

 private:
  std::uint64_t state_;
};

}  // namespace malec
