// Property/fuzz tests for the run loop's hot containers:
//
//  - EventQueue's calendar/bucket queue against a std::priority_queue
//    oracle (test-only) — randomized push/drain schedules (horizons both
//    inside and far beyond the kBuckets=1024 aliasing window), ~10k
//    operations per seed, identical pop order, and nextCycle() equal to
//    the heap's top() after every push and drain.
//  - Checkpoint layout: the saved bytes are a u64 count followed by the
//    heap's (cycle, seq) pairs in pop order — the layout existing .mckpt
//    files carry — and a queue restored from such bytes drains in heap
//    order.
//  - FixedRing against a std::deque reference: push/pop/index fuzz across
//    wrap boundaries, recycle after drain, exhaustion (full()), and stable
//    logical indexing (operator[] follows push order).
//
// All randomness flows from fixed seeds through common/rng.h — reruns are
// deterministic.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <deque>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/state_io.h"
#include "common/fixed_ring.h"
#include "common/rng.h"
#include "core/event_queue.h"

namespace malec::core {
namespace {

using PQ = std::priority_queue<std::pair<Cycle, SeqNum>,
                               std::vector<std::pair<Cycle, SeqNum>>,
                               std::greater<>>;

std::string tmpPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

/// The queue's wake-up time must be the reference heap's top cycle.
void expectSameNextCycle(const EventQueue& q, const PQ& ref) {
  ASSERT_EQ(q.nextCycle(), ref.empty() ? kNever : ref.top().first);
}

/// Drain both the queue under test and the reference heap at `now` and
/// compare the popped seq order element by element.
void drainBoth(EventQueue& q, PQ& ref, Cycle now) {
  std::vector<SeqNum> got;
  q.drainReady(now, [&got](SeqNum seq) { got.push_back(seq); });
  std::vector<SeqNum> want;
  while (!ref.empty() && ref.top().first <= now) {
    want.push_back(ref.top().second);
    ref.pop();
  }
  ASSERT_EQ(got, want) << "pop order diverged at cycle " << now;
}

/// One fuzz schedule: random bursts of pushes with horizon `max_ahead`,
/// interleaved with drains as the clock advances by random strides.
void fuzzAgainstHeap(std::uint64_t seed, std::uint64_t max_ahead,
                     int iterations) {
  EventQueue q;
  PQ ref;
  Rng rng(seed);
  Cycle now = 0;
  SeqNum next_seq = 0;  // unique seqs, like the run loop's instruction seqs
  for (int i = 0; i < iterations; ++i) {
    const std::uint64_t pushes = rng.below(4);
    for (std::uint64_t p = 0; p < pushes; ++p) {
      const Cycle cycle = now + rng.below(max_ahead) + 1;
      const SeqNum seq = next_seq++;
      q.push(cycle, seq);
      ref.emplace(cycle, seq);
      expectSameNextCycle(q, ref);
    }
    ASSERT_EQ(q.size(), ref.size());
    now += rng.below(3);  // strides of 0-2 revisit cycles and skip cycles
    drainBoth(q, ref, now);
    expectSameNextCycle(q, ref);
  }
  // Flush everything left so the whole schedule is compared.
  drainBoth(q, ref, now + max_ahead + 1);
  expectSameNextCycle(q, ref);
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(ref.empty());
}

TEST(CalendarQueue, FuzzShortHorizon) {
  // Horizon well inside one bucket ring revolution.
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    fuzzAgainstHeap(seed, /*max_ahead=*/64, /*iterations=*/10000);
  }
}

TEST(CalendarQueue, FuzzAliasingHorizon) {
  // Horizon far beyond kBuckets=1024: future events alias into earlier
  // buckets and must be filtered by exact cycle, never popped early.
  for (std::uint64_t seed : {11ull, 12ull}) {
    fuzzAgainstHeap(seed, /*max_ahead=*/5000, /*iterations=*/3000);
  }
}

TEST(CalendarQueue, NextCycleBeyondOneRevolution) {
  // Every event a ring revolution or more ahead of the drain cursor: the
  // bounded forward scan finds nothing (each bucket it visits holds only
  // an aliased later event) and the fallback pass must return the exact
  // minimum.
  EventQueue q;
  EXPECT_EQ(q.nextCycle(), kNever);
  q.push(10, 0);
  q.push(1038, 1);  // bucket 14: visited at cycle 14 by the forward scan
  q.push(2758, 2);
  q.push(3087, 3);
  EXPECT_EQ(q.nextCycle(), Cycle{10});
  q.drainReady(10, [](SeqNum) {});
  EXPECT_EQ(q.nextCycle(), Cycle{1038});  // cursor 11: fallback pass
  q.drainReady(1038, [](SeqNum) {});
  EXPECT_EQ(q.nextCycle(), Cycle{2758});  // cursor 1039: fallback pass
  q.drainReady(2758, [](SeqNum) {});
  EXPECT_EQ(q.nextCycle(), Cycle{3087});  // within the forward scan
  q.drainReady(3087, [](SeqNum) {});
  EXPECT_EQ(q.nextCycle(), kNever);
}

TEST(CalendarQueue, SameCycleSeqOrder) {
  // Many events on one cycle pop in ascending seq order regardless of
  // push order.
  EventQueue q;
  const std::vector<SeqNum> scrambled{7, 2, 9, 0, 5, 3, 8, 1, 6, 4};
  for (SeqNum s : scrambled) q.push(10, s);
  std::vector<SeqNum> got;
  q.drainReady(10, [&got](SeqNum s) { got.push_back(s); });
  EXPECT_EQ(got, (std::vector<SeqNum>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

/// Write `w` to `path` and return the file's bytes.
std::string writeAndRead(const ckpt::StateWriter& w, const std::string& path) {
  std::string err;
  EXPECT_TRUE(w.writeTo(path, err)) << err;
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(CalendarQueue, CheckpointBytesAreHeapPopOrder) {
  EventQueue q;
  PQ ref;
  Rng rng(99);
  for (SeqNum s = 0; s < 200; ++s) {
    const Cycle cycle = rng.below(4096);
    q.push(cycle, s);
    ref.emplace(cycle, s);
  }
  ckpt::StateWriter saved;
  saved.beginSection("queue");
  q.saveState(saved);
  saved.endSection();

  // The layout existing .mckpt files carry: u64 count, then the reference
  // heap's (cycle, seq) pairs in pop order.
  ckpt::StateWriter heap;
  heap.beginSection("queue");
  heap.u64(ref.size());
  for (PQ copy = ref; !copy.empty(); copy.pop()) {
    heap.u64(copy.top().first);
    heap.u64(copy.top().second);
  }
  heap.endSection();

  const std::string saved_path = tmpPath("eq_saved.bin");
  const std::string heap_path = tmpPath("eq_heap.bin");
  const std::string saved_bytes = writeAndRead(saved, saved_path);
  EXPECT_FALSE(saved_bytes.empty());
  EXPECT_EQ(saved_bytes, writeAndRead(heap, heap_path));

  // A queue restored from the heap-layout bytes drains cycle by cycle in
  // exactly the heap's order.
  EventQueue restored;
  ckpt::StateReader r(heap_path);
  ASSERT_TRUE(r.ok()) << r.error();
  r.openSection("queue");
  restored.loadState(r);
  r.endSection();
  ASSERT_EQ(restored.size(), ref.size());
  for (Cycle c = 0; c < 4096; ++c) drainBoth(restored, ref, c);
  EXPECT_TRUE(restored.empty());
  EXPECT_TRUE(ref.empty());
  std::remove(saved_path.c_str());
  std::remove(heap_path.c_str());
}

// --- FixedRing ---------------------------------------------------------------

TEST(FixedRing, FuzzAgainstDeque) {
  // Non-power-of-two capacity exercises the compare-based wrap; the
  // reference deque pins FIFO order, logical indexing and sizes across
  // thousands of recycle cycles.
  for (std::uint64_t seed : {21ull, 22ull, 23ull}) {
    common::FixedRing<std::uint64_t> ring(7);
    std::deque<std::uint64_t> ref;
    Rng rng(seed);
    std::uint64_t v = 0;
    for (int i = 0; i < 10000; ++i) {
      if (!ring.full() && rng.below(2) == 0) {
        ring.push_back(v);
        ref.push_back(v);
        ++v;
      } else if (!ring.empty()) {
        ASSERT_EQ(ring.front(), ref.front());
        ring.pop_front();
        ref.pop_front();
      }
      ASSERT_EQ(ring.size(), ref.size());
      ASSERT_EQ(ring.empty(), ref.empty());
      ASSERT_EQ(ring.full(), ref.size() == 7);
      // Stable logical handles: index i always names the i-th oldest.
      for (std::size_t j = 0; j < ref.size(); ++j)
        ASSERT_EQ(ring[j], ref[j]);
    }
  }
}

TEST(FixedRing, ExhaustionAndRecycle) {
  common::FixedRing<int> ring(3);
  for (int i = 0; i < 3; ++i) ring.push_back(i);
  EXPECT_TRUE(ring.full());
  // Drain and refill several times: slots recycle, order is preserved.
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(ring.front(), round * 3);
    ring.pop_front();
    ring.push_back(round * 3 + 3);
    EXPECT_TRUE(ring.full());
    EXPECT_EQ(ring[0], round * 3 + 1);
    EXPECT_EQ(ring[2], round * 3 + 3);
    ring.pop_front();
    ring.pop_front();
    EXPECT_EQ(ring.size(), 1u);
    ring.push_back(round * 3 + 4);
    // Leave the ring holding {3r+3, 3r+4} and top up to full for the next
    // round's head expectation.
    ring.pop_front();
    ring.push_back(round * 3 + 5);
    ASSERT_EQ(ring.size(), 2u);
    ring.pop_front();
    ring.pop_front();
    for (int i = 0; i < 3; ++i) ring.push_back((round + 1) * 3 + i);
  }
}

TEST(FixedRing, ClearAndReset) {
  common::FixedRing<int> ring(4);
  ring.push_back(1);
  ring.push_back(2);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 4u);
  ring.push_back(9);
  EXPECT_EQ(ring.front(), 9);
  ring.reset(2);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 2u);
}

}  // namespace
}  // namespace malec::core
