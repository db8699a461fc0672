#include "core/event_queue.h"

#include <atomic>
#include <cstdlib>

#include "ckpt/pq_state.h"
#include "ckpt/state_io.h"

namespace malec::core {

namespace {
/// -1 = not yet seeded from the environment; 0/1 = resolved value. A data
/// race on first seeding is benign: every racer parses the same strict
/// value and stores the same result.
std::atomic<int> g_exec_queue_legacy{-1};
}  // namespace

bool execQueueLegacy() {
  int v = g_exec_queue_legacy.load(std::memory_order_relaxed);
  if (v < 0) {
    const char* env = std::getenv("MALEC_LEGACY_EXEC_QUEUE");
    int parsed = 0;
    if (env != nullptr) {
      MALEC_CHECK_MSG((env[0] == '0' || env[0] == '1') && env[1] == '\0',
                      "MALEC_LEGACY_EXEC_QUEUE must be exactly '0' or '1'");
      parsed = env[0] - '0';
    }
    g_exec_queue_legacy.store(parsed, std::memory_order_relaxed);
    v = parsed;
  }
  return v != 0;
}

void setExecQueueLegacy(bool legacy) {
  g_exec_queue_legacy.store(legacy ? 1 : 0, std::memory_order_relaxed);
}

EventQueue::EventQueue() : legacy_(execQueueLegacy()) {
  if (!legacy_) buckets_.resize(kBuckets);
}

Cycle EventQueue::nextCycle() const {
  if (size_ == 0) return kNever;
  if (legacy_) return legacy_pq_.top().first;
  // next_ bounds every pending cycle from below, so the first cycle at or
  // past it whose bucket holds an event for exactly that cycle is the min.
  // The drain cursor moves up to it: the next drain skips the empty
  // buckets this scan already visited.
  for (Cycle c = next_; c < next_ + kBuckets; ++c)
    for (const Event& e : buckets_[c & (kBuckets - 1)])
      if (e.cycle == c) return next_ = c;
  Cycle earliest = kNever;
  for (const std::vector<Event>& b : buckets_)
    for (const Event& e : b) earliest = std::min(earliest, e.cycle);
  return next_ = earliest;
}

void EventQueue::saveState(ckpt::StateWriter& w) const {
  if (legacy_) {
    ckpt::savePairQueue(w, legacy_pq_);
    return;
  }
  std::vector<Event> all;
  all.reserve(size_);
  for (const std::vector<Event>& b : buckets_)
    all.insert(all.end(), b.begin(), b.end());
  std::sort(all.begin(), all.end(), [](const Event& a, const Event& b) {
    return a.cycle != b.cycle ? a.cycle < b.cycle : a.seq < b.seq;
  });
  w.u64(all.size());
  for (const Event& e : all) {
    w.u64(e.cycle);
    w.u64(e.seq);
  }
}

void EventQueue::loadState(ckpt::StateReader& r) {
  if (legacy_) {
    ckpt::loadPairQueue(r, legacy_pq_);
    size_ = legacy_pq_.size();
    return;
  }
  for (std::vector<Event>& b : buckets_) b.clear();
  const std::uint64_t n = r.u64();
  size_ = static_cast<std::size_t>(n);
  next_ = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const Cycle cycle = r.u64();
    const SeqNum seq = r.u64();
    if (i == 0 || cycle < next_) next_ = cycle;
    buckets_[cycle & (kBuckets - 1)].push_back(Event{cycle, seq});
  }
}

}  // namespace malec::core
