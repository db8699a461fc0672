// Binary trace file I/O.
//
// Lets users capture a synthetic stream once and replay it (or bring their
// own traces from a real simulator) — the on-disk format is a fixed-width
// little-endian record stream with a small header. The byte-level format
// specification (the v3 header layout, the 26-byte record, checksum and
// compatibility rules) lives in docs/FILE_FORMATS.md; this header only
// documents the API behaviour.
//
// Both ends move data in multi-record blocks (not one 26-byte stdio call
// per record), and the reader validates the header record count against the
// actual file size at open — a truncated file is a hard error, never a
// silently shorter stream.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/address.h"
#include "trace/record.h"

namespace malec::trace {

/// Magic bytes + version identifying a MALEC trace file.
inline constexpr std::uint32_t kTraceMagic = 0x4D414C43;  // "MALC"
/// The one version TraceWriter writes and TraceReader accepts.
inline constexpr std::uint32_t kTraceVersion = 3;

/// Writes records to a trace file (the v3 format). Throws
/// nothing; reports failures via ok()/error(). Records are staged in a
/// block buffer and written in bulk; the file is finalised (header record
/// count + checksum patched) on close().
class TraceWriter {
 public:
  /// `layout` is recorded in the header so a replay can verify it simulates
  /// the address space the trace was captured under.
  explicit TraceWriter(const std::string& path,
                       const AddressLayout& layout = AddressLayout{});
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void write(const InstrRecord& r);
  /// Flush, patch the header and close. Returns false on I/O failure.
  bool close();
  [[nodiscard]] bool ok() const { return ok_; }
  /// Human-readable description of the first failure ("" while ok()).
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::uint64_t written() const { return count_; }

 private:
  void fail(std::string msg);
  bool flushBlock();

  std::FILE* f_ = nullptr;
  bool ok_ = false;
  std::string error_;
  std::uint64_t count_ = 0;
  std::uint64_t checksum_ = 0;
  /// One block, sized once; the first `staged_` bytes await the next flush.
  std::vector<std::uint8_t> buf_;
  std::size_t staged_ = 0;
};

/// Streams records back from a trace file; implements TraceSource.
///
/// Failures are sticky: once ok() is false (unreadable/truncated/corrupt
/// file, record with an out-of-range kind or size byte, record whose seq is
/// not its index in the file, record checksum mismatch) next() keeps returning false and reset() will NOT resurrect
/// the stream — callers must check ok() after draining, or a partial trace
/// would silently masquerade as a short one.
class TraceReader final : public TraceSource {
 public:
  explicit TraceReader(const std::string& path);
  ~TraceReader() override;
  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  bool next(InstrRecord& out) override;
  void reset() override;
  /// Verify the record checksum even when the stream was NOT drained to
  /// the end (a capped replay): hashes the unread remainder of the file and
  /// compares. Leaves the reader at end-of-stream (reset() to replay); a
  /// mismatch is a sticky failure like any other. No-op for fully-drained
  /// streams (next() already verified those). Returns ok().
  bool finishChecksum();
  /// Records served so far — the stream position a checkpoint stores.
  [[nodiscard]] std::uint64_t consumed() const { return read_; }
  /// Running record checksum over the served records — stored alongside
  /// the position so a restored reader can still verify the whole file.
  [[nodiscard]] std::uint64_t runningChecksum() const {
    return checksum_run_;
  }
  /// Reposition to record `n` with the running checksum as of that point
  /// (both from a checkpoint of this exact file). The caller is
  /// responsible for the binding check (record count + header checksum);
  /// an out-of-range position is a hard error. Returns ok().
  bool seekTo(std::uint64_t n, std::uint64_t checksum_run);
  [[nodiscard]] bool ok() const { return ok_; }
  /// Human-readable description of the first failure ("" while ok()).
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  /// The header's record checksum.
  [[nodiscard]] std::uint64_t expectedChecksum() const {
    return checksum_expect_;
  }
  [[nodiscard]] const AddressLayout::Params& layoutParams() const {
    return layout_params_;
  }
  /// The layout the trace was captured under, as its header records it
  /// (an open refuses a header whose layout AddressLayout rejects).
  [[nodiscard]] AddressLayout layout() const {
    return AddressLayout(layout_params_);
  }

 private:
  void fail(std::string msg);
  bool refill();

  std::FILE* f_ = nullptr;
  bool ok_ = false;
  std::string error_;
  std::string path_;
  std::uint64_t total_ = 0;
  std::uint64_t read_ = 0;
  AddressLayout::Params layout_params_{};
  std::uint64_t checksum_expect_ = 0;
  std::uint64_t checksum_run_ = 0;
  std::vector<std::uint8_t> buf_;
  std::size_t buf_pos_ = 0;
};

/// In-memory trace source for tests and small experiments.
class VectorTraceSource final : public TraceSource {
 public:
  explicit VectorTraceSource(std::vector<InstrRecord> records)
      : records_(std::move(records)) {}

  bool next(InstrRecord& out) override {
    if (pos_ >= records_.size()) return false;
    out = records_[pos_++];
    return true;
  }
  void reset() override { pos_ = 0; }

 private:
  std::vector<InstrRecord> records_;
  std::size_t pos_ = 0;
};

/// Convenience: drain `src` into a vector (use only for bounded sources).
[[nodiscard]] std::vector<InstrRecord> drain(TraceSource& src);

}  // namespace malec::trace
