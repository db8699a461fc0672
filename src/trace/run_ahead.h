// Run-ahead synthetic stream: the generator works on a helper thread, a
// few blocks ahead of the core that reads it.
//
// In a single run the synthetic generator sits on the core's critical path
// (about a sixth of a MALEC run; docs/ARCHITECTURE.md, "Where the time
// goes"). RunAheadSource moves it onto one helper thread that fills a fixed
// ring of record blocks while the core drains them, so the core's thread
// only copies records. Every record is the generator's own, in order, so a
// run fed through it is bit-identical to the run that reads the generator
// inline. sim::runOne decides when a run uses it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "trace/record.h"
#include "trace/synth_generator.h"

namespace malec::trace {

/// Serves `gen`'s stream out of a ring of kBlocks blocks of kBlockRecords
/// records, which a helper thread started by the constructor fills ahead
/// of the reader. Each block crosses from one thread to the other under
/// one mutex and one condition variable per direction; nothing is
/// allocated after construction. The generator belongs to the helper for
/// the source's whole life: nothing else may touch it until the source is
/// destroyed, so declare the source after the generator it reads. It keeps
/// no checkpoint state: a run that writes or restores a checkpoint reads
/// its generator inline, where the checkpoint's `source` section holds the
/// generator at the core's position. The destructor stops and joins the
/// helper, also mid-stream with the helper waiting on a full ring.
class RunAheadSource final : public TraceSource {
 public:
  static constexpr std::size_t kBlockRecords = 4096;
  static constexpr std::size_t kBlocks = 3;

  explicit RunAheadSource(SyntheticTraceGenerator& gen);
  ~RunAheadSource() override;
  RunAheadSource(const RunAheadSource&) = delete;
  RunAheadSource& operator=(const RunAheadSource&) = delete;

  bool next(InstrRecord& out) override {
    if (pos_ == end_ && !takeBlock()) return false;
    out = *pos_++;
    return true;
  }
  /// Aborts: the helper owns the generator's position.
  void reset() override;

 private:
  /// Hand the block just read back to the helper and wait for the next
  /// one; false at the end of the stream.
  bool takeBlock();
  /// The helper thread: fill blocks until the stream ends or stop_.
  void produce();

  SyntheticTraceGenerator& gen_;
  std::vector<InstrRecord> ring_;  ///< kBlocks x kBlockRecords

  // The reader's side, touched only by the thread that calls next().
  const InstrRecord* pos_ = nullptr;
  const InstrRecord* end_ = nullptr;
  std::uint64_t taken_ = 0;  ///< blocks the reader has taken
  bool last_ = false;        ///< the block being read ends the stream

  // Shared by both threads, under mu_.
  std::mutex mu_;
  std::condition_variable filled_cv_;  ///< helper -> reader: a block is full
  std::condition_variable freed_cv_;   ///< reader -> helper: a block is free
  std::uint64_t filled_ = 0;  ///< blocks the helper has published
  std::uint64_t freed_ = 0;   ///< blocks the reader has handed back
  std::size_t lengths_[kBlocks] = {};  ///< records in each published block
  bool stop_ = false;

  std::thread helper_;  // last: starts once every member above is built
};

}  // namespace malec::trace
