// Stream tape: a synthetic stream recorded once into memory, replayed by
// any number of readers.
//
// A sweep row runs one workload's stream, with one budget and seed, under
// several interface configurations, and every one of those runs would
// otherwise regenerate the identical records. StreamTape drains a source
// once into 64 KiB chunks in a compact encoding, and each run then reads it
// through its own TapeReader cursor. The tape never reaches disk: it lives
// as long as its row, so it has no file format and no version.
//
// Encoding, per record (seq is not stored: a reader counts it):
//   * one header byte: bits 0-1 the kind, bits 2-4 log2(size) for a memory
//     record (sizes 1-16), bit 5 has-dep, bit 6 has-addr-dep;
//   * a memory record: its vaddr's delta from the previous memory record's
//     (the first from 0), zigzag-mapped to an unsigned varint;
//   * then dep_distance and addr_dep_distance as varints, each only when
//     its header bit is set (a distance of 0 is no dependency).
// A non-memory record carries no address and size 0. The recorder checks
// that every record fits this shape, so a reader returns exactly the
// records it was given.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "trace/record.h"

namespace malec::trace {

class StreamTape {
 public:
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  /// Records `src` from where it stands to its end. Aborts on a record the
  /// encoding cannot hold: a seq that is not its index on the tape, a
  /// memory access whose size is not 1, 2, 4, 8 or 16 bytes, or a
  /// non-memory record with an address or a size.
  explicit StreamTape(TraceSource& src);

  [[nodiscard]] std::uint64_t records() const { return records_; }
  /// Encoded bytes, excluding the unused tail of each chunk.
  [[nodiscard]] std::size_t bytes() const;

 private:
  friend class TapeReader;

  /// Chunks are mapped from the kernel, not taken from malloc: a tape is
  /// recorded on one worker and freed by whichever reads it last, and
  /// malloc keeps a freed chunk in the recording worker's arena, so each
  /// worker's arena would hold its own peak of tapes. A mapped chunk
  /// leaves the process when its tape is freed.
  struct Unmap {
    void operator()(std::uint8_t* p) const;
  };
  struct Chunk {
    std::unique_ptr<std::uint8_t[], Unmap> data;
    std::size_t used = 0;
  };

  std::vector<Chunk> chunks_;
  std::uint64_t records_ = 0;
};

/// One run's cursor over a finished tape. The tape is only read, so any
/// number of readers on any threads may share it; it must outlive them.
class TapeReader final : public TraceSource {
 public:
  explicit TapeReader(const StreamTape& tape) : tape_(tape) { reset(); }

  bool next(InstrRecord& out) override;
  /// Rewinds to the tape's first record.
  void reset() override;

 private:
  const StreamTape& tape_;
  std::size_t chunk_ = 0;
  const std::uint8_t* pos_ = nullptr;
  const std::uint8_t* end_ = nullptr;
  std::uint64_t seq_ = 0;
  Addr vaddr_ = 0;  ///< the previous memory record's address
};

}  // namespace malec::trace
