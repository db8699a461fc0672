#include "core/event_queue.h"

#include "ckpt/state_io.h"

namespace malec::core {

EventQueue::EventQueue() : buckets_(kBuckets) {}

Cycle EventQueue::nextCycle() const {
  if (size_ == 0) return kNever;
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
