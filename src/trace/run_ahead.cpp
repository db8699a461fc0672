#include "trace/run_ahead.h"

#include "common/check.h"

namespace malec::trace {

RunAheadSource::RunAheadSource(SyntheticTraceGenerator& gen)
    : gen_(gen),
      ring_(kBlocks * kBlockRecords),
      helper_([this] { produce(); }) {}

RunAheadSource::~RunAheadSource() {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  freed_cv_.notify_one();
  helper_.join();
}

void RunAheadSource::reset() {
  MALEC_CHECK_MSG(false,
                  "a run-ahead source cannot rewind: its helper thread owns "
                  "the generator");
}

void RunAheadSource::produce() {
  for (std::uint64_t b = 0;; ++b) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      freed_cv_.wait(lk, [this, b] { return stop_ || b - freed_ < kBlocks; });
      if (stop_) return;
    }
    // The reader handed this slot back under mu_, so it reads none of it
    // until the block is published below.
    InstrRecord* const block = &ring_[(b % kBlocks) * kBlockRecords];
    std::size_t n = 0;
    while (n < kBlockRecords && gen_.next(block[n])) ++n;
    {
      const std::lock_guard<std::mutex> lk(mu_);
      lengths_[b % kBlocks] = n;
      filled_ = b + 1;
      filled_cv_.notify_one();
    }
    // A short block, possibly empty, ends the stream.
    if (n < kBlockRecords) return;
  }
}

bool RunAheadSource::takeBlock() {
  if (last_) return false;
  std::size_t n = 0;
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (taken_ > 0) {
      freed_ = taken_;
      freed_cv_.notify_one();
    }
    filled_cv_.wait(lk, [this] { return filled_ > taken_; });
    n = lengths_[taken_ % kBlocks];
  }
  pos_ = &ring_[(taken_ % kBlocks) * kBlockRecords];
  end_ = pos_ + n;
  ++taken_;
  last_ = n < kBlockRecords;
  return n > 0;
}

}  // namespace malec::trace
