// Calendar/bucket event queue for the per-cycle hot path.
//
// The simulator's completion queues (core exec events, interface load
// completions) are (ready_cycle, seq) pairs that are always drained in
// ascending (cycle, seq) order at the current cycle. A binary heap pays
// O(log n) churn per event; this queue instead hashes each event into a
// power-of-two ring of cycle buckets (index = cycle mod kBuckets) and pops
// a bucket per cycle — O(1) amortised push/pop. Events farther out than
// kBuckets cycles alias into an earlier bucket and are filtered by their
// exact cycle at drain time, so arbitrary horizons stay correct.
//
// Pop order is that of a min-heap on the (cycle, seq) pair: every pair is
// unique (a seq completes at most once per queue), the drain cursor visits
// cycles in ascending order, and each cycle's events are emitted sorted by
// seq. Checkpoints serialize the pairs in that pop order after a u64
// count — the layout the binary heap this queue replaced wrote, so
// existing `.mckpt` files restore unchanged (tests/test_calendar_queue.cpp
// pins both against a std::priority_queue oracle).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace malec::ckpt {
class StateReader;
class StateWriter;
}  // namespace malec::ckpt

namespace malec::core {

class EventQueue {
 public:
  EventQueue();

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Cycle of the earliest pending event, or kNever when empty — the
  /// wake-up time the run loop skips quiet cycles to. It scans at most
  /// kBuckets buckets forward from the drain cursor (a lower bound on every
  /// pending cycle); only when every event lies a whole ring revolution or
  /// more ahead does it fall back to one pass over all pending events.
  /// Either way the cursor moves up to the answer, so the next drainReady()
  /// starts there.
  [[nodiscard]] Cycle nextCycle() const;

  /// Enqueue `seq` to pop once the clock reaches `cycle`. Must not be
  /// called from inside a drainReady() callback. Inline: this is the single
  /// hottest call in the run loop (one per completion event).
  void push(Cycle cycle, SeqNum seq) {
    // An empty queue re-anchors the cursor; a push behind it rewinds it
    // (the run loop never does this — events land at now+latency — but
    // restored or fuzzed queues may).
    if (size_ == 0 || cycle < next_) next_ = cycle;
    // lint:allow(hot-alloc: buckets keep their high-water capacity — steady-state pushes reuse retained storage)
    buckets_[cycle & (kBuckets - 1)].push_back(Event{cycle, seq});
    ++size_;
  }

  /// Pop every event with cycle <= now, invoking fn(seq) in ascending
  /// (cycle, seq) order — exactly the pop order of a min-heap on the pair.
  template <class Fn>
  void drainReady(Cycle now, Fn&& fn) {
    while (size_ > 0 && next_ <= now) {
      std::vector<Event>& b = buckets_[next_ & (kBuckets - 1)];
      if (!b.empty()) {
        // Extract this cycle's events; aliased future events stay put
        // (compacted in place, relative order preserved).
        drain_scratch_.clear();
        std::size_t keep = 0;
        for (const Event& e : b) {
          if (e.cycle == next_) {
            // lint:allow(hot-alloc: drain scratch retains capacity across cycles)
            drain_scratch_.push_back(e);
          } else {
            b[keep++] = e;
          }
        }
        // lint:allow(hot-alloc: shrinking resize — compacts in place, never grows)
        b.resize(keep);
        if (!drain_scratch_.empty()) {
          if (drain_scratch_.size() > 1)
            std::sort(drain_scratch_.begin(), drain_scratch_.end(),
                      [](const Event& a, const Event& e) {
                        return a.seq < e.seq;
                      });
          size_ -= drain_scratch_.size();
          for (const Event& e : drain_scratch_) fn(e.seq);
        }
      }
      ++next_;
    }
  }

  /// Checkpoint/restore. Byte format: u64 count, then ascending
  /// (cycle, seq) u64 pairs.
  void saveState(ckpt::StateWriter& w) const;
  void loadState(ckpt::StateReader& r);

 private:
  struct Event {
    Cycle cycle;
    SeqNum seq;
  };
  static constexpr std::size_t kBuckets = 1024;  // power of two (mask index)

  std::size_t size_ = 0;
  /// Next cycle the drain cursor will visit; a lower bound on every pending
  /// event's cycle. nextCycle() may raise it to the exact minimum.
  mutable Cycle next_ = 0;  // lint:no-state(derived: recomputed as the min pending cycle in loadState)
  std::vector<std::vector<Event>> buckets_;
  std::vector<Event> drain_scratch_;  // lint:no-state(per-drain scratch)
};

}  // namespace malec::core
