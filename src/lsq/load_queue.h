// Load Queue occupancy model (40 entries, paper Table II).
//
// The LQ tracks in-flight loads from dispatch to commit. Its energy is
// excluded from the paper's accounting (similar across configurations), so
// this model only enforces the structural limit.
//
// Loads allocate in dispatch order (strictly ascending seq) and release at
// commit, which is program order — the LQ is a strict FIFO. The ring
// layout encodes that invariant: release checks the head instead of
// searching, and serialization walks the ring, which IS ascending-seq
// order, producing the same bytes the old sorted-set layout wrote.
#pragma once

#include <cstdint>

#include "ckpt/state_io.h"
#include "common/check.h"
#include "common/fixed_ring.h"
#include "common/types.h"

namespace malec::lsq {

class LoadQueue {
 public:
  explicit LoadQueue(std::uint32_t capacity = 40) : ring_(capacity) {
    MALEC_CHECK(capacity >= 1);
  }

  [[nodiscard]] bool full() const { return ring_.full(); }
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(ring_.capacity());
  }

  /// Allocate at dispatch. Caller must check full() first.
  void allocate(SeqNum seq) {
    MALEC_CHECK_MSG(!full(), "LoadQueue overflow");
    MALEC_CHECK_MSG(ring_.empty() || seq > ring_[ring_.size() - 1],
                    "duplicate or out-of-order LQ allocation");
    // lint:allow(hot-alloc: FixedRing::push_back writes into a preallocated slab — no allocation)
    ring_.push_back(seq);
  }

  /// Release at commit (program order — always the oldest live load).
  void release(SeqNum seq) {
    MALEC_CHECK_MSG(!ring_.empty() && ring_.front() == seq,
                    "LQ release of unknown or out-of-order load");
    ring_.pop_front();
  }

  /// Checkpoint/restore of the in-flight load set, in ring order, which
  /// is ascending seq.
  void saveState(ckpt::StateWriter& w) const {
    w.u64(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) w.u64(ring_[i]);
  }
  void loadState(ckpt::StateReader& r) {
    ring_.clear();
    const std::uint64_t n = r.u64();
    MALEC_CHECK_MSG(n <= ring_.capacity(),
                    "LQ checkpoint exceeds this capacity");
    for (std::uint64_t i = 0; i < n; ++i) ring_.push_back(r.u64());
  }

 private:
  common::FixedRing<SeqNum> ring_;
};

}  // namespace malec::lsq
