// Replacement policies for set-associative structures.
//
// The paper uses LRU-style replacement for caches (`Cache` holds an
// LruPolicy by value), random replacement for the main TLB and the
// second-chance (clock) algorithm for the uTLB — the latter chosen to
// reduce uWT->WT writeback traffic (Sec. V).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"

namespace malec::ckpt {
class StateReader;
class StateWriter;
}  // namespace malec::ckpt

namespace malec::mem {

/// Chooses victims within one set of `ways` ways. `allowed_mask` restricts
/// candidate ways (bit i set = way i allowed); MALEC uses this to keep lines
/// out of their WT-excluded way (Sec. V).
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;
  /// Note a hit on (set, way).
  virtual void touch(std::uint32_t set, std::uint32_t way) = 0;
  /// Note a fill into (set, way).
  virtual void fill(std::uint32_t set, std::uint32_t way) = 0;
  /// Pick a victim way within `set` among `allowed_mask`.
  [[nodiscard]] virtual std::uint32_t victim(std::uint32_t set,
                                             std::uint64_t allowed_mask) = 0;

  /// Checkpoint/restore of the policy's mutable state (recency stamps,
  /// clock hands, RNG stream). Restoring into an identically-configured
  /// policy makes victim selection continue bit-identically.
  virtual void saveState(ckpt::StateWriter& w) const = 0;
  virtual void loadState(ckpt::StateReader& r) = 0;
};

/// True LRU via per-set recency stamps. `touch` and `fill` are defined
/// here because `Cache` runs them on every L1 hit and fill.
class LruPolicy final : public ReplacementPolicy {
 public:
  LruPolicy(std::uint32_t sets, std::uint32_t ways);
  void touch(std::uint32_t set, std::uint32_t way) override {
    stamp_[static_cast<std::size_t>(set) * ways_ + way] = ++tick_;
  }
  void fill(std::uint32_t set, std::uint32_t way) override { touch(set, way); }
  [[nodiscard]] std::uint32_t victim(std::uint32_t set,
                                     std::uint64_t allowed_mask) override;
  void saveState(ckpt::StateWriter& w) const override;
  void loadState(ckpt::StateReader& r) override;

 private:
  std::uint32_t ways_;  // lint:no-state(geometry; load checks sizes)
  std::uint64_t tick_ = 0;
  std::vector<std::uint64_t> stamp_;  ///< sets x ways
};

/// Uniform-random victim selection (paper: TLB replacement).
class RandomPolicy final : public ReplacementPolicy {
 public:
  RandomPolicy(std::uint32_t sets, std::uint32_t ways, Rng rng);
  void touch(std::uint32_t set, std::uint32_t way) override;
  void fill(std::uint32_t set, std::uint32_t way) override;
  [[nodiscard]] std::uint32_t victim(std::uint32_t set,
                                     std::uint64_t allowed_mask) override;
  void saveState(ckpt::StateWriter& w) const override;
  void loadState(ckpt::StateReader& r) override;

 private:
  std::uint32_t ways_;  // lint:no-state(geometry; load checks sizes)
  Rng rng_;
};

/// Second-chance (clock). Intended for fully-associative structures
/// (sets == 1); the paper uses it for the uTLB to minimise full-entry
/// uWT->WT transfers.
class SecondChancePolicy final : public ReplacementPolicy {
 public:
  SecondChancePolicy(std::uint32_t sets, std::uint32_t ways);
  void touch(std::uint32_t set, std::uint32_t way) override;
  void fill(std::uint32_t set, std::uint32_t way) override;
  [[nodiscard]] std::uint32_t victim(std::uint32_t set,
                                     std::uint64_t allowed_mask) override;
  void saveState(ckpt::StateWriter& w) const override;
  void loadState(ckpt::StateReader& r) override;

 private:
  std::uint32_t ways_;  // lint:no-state(geometry; load checks sizes)
  std::vector<std::uint8_t> ref_;     ///< reference bits, sets x ways
  std::vector<std::uint32_t> hand_;   ///< clock hand per set
};

enum class ReplacementKind { kRandom, kSecondChance };

/// Factory used by the TLB constructor.
[[nodiscard]] std::unique_ptr<ReplacementPolicy> makePolicy(
    ReplacementKind kind, std::uint32_t sets, std::uint32_t ways, Rng rng);

}  // namespace malec::mem
