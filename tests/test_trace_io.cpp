#include "trace/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "trace/synth_generator.h"
#include "trace/workloads.h"

namespace malec::trace {
namespace {

std::string tmpPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

TEST(TraceIo, RoundTrip) {
  const std::string path = tmpPath("roundtrip.mtrace");
  std::vector<InstrRecord> recs;
  for (std::uint64_t i = 0; i < 100; ++i) {
    InstrRecord r;
    r.seq = i;
    r.kind = static_cast<InstrKind>(i % 3);
    r.vaddr = 0x1000 + i * 8;
    r.size = 8;
    r.dep_distance = static_cast<std::uint32_t>(i % 5);
    r.addr_dep_distance = static_cast<std::uint32_t>(i % 7);
    recs.push_back(r);
  }
  {
    TraceWriter w(path);
    ASSERT_TRUE(w.ok());
    for (const auto& r : recs) w.write(r);
    EXPECT_TRUE(w.close());
    EXPECT_EQ(w.written(), 100u);
  }
  TraceReader rd(path);
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ(rd.total(), 100u);
  InstrRecord r;
  std::size_t i = 0;
  while (rd.next(r)) {
    EXPECT_EQ(r.seq, recs[i].seq);
    EXPECT_EQ(static_cast<int>(r.kind), static_cast<int>(recs[i].kind));
    EXPECT_EQ(r.vaddr, recs[i].vaddr);
    EXPECT_EQ(r.size, recs[i].size);
    EXPECT_EQ(r.dep_distance, recs[i].dep_distance);
    EXPECT_EQ(r.addr_dep_distance, recs[i].addr_dep_distance);
    ++i;
  }
  EXPECT_EQ(i, recs.size());
  std::remove(path.c_str());
}

TEST(TraceIo, ReaderResetReplays) {
  const std::string path = tmpPath("reset.mtrace");
  {
    TraceWriter w(path);
    InstrRecord r;
    r.kind = InstrKind::kLoad;
    r.vaddr = 42;
    r.size = 8;  // loads must carry a valid access size since v2
    w.write(r);
    w.close();
  }
  TraceReader rd(path);
  InstrRecord r;
  ASSERT_TRUE(rd.next(r));
  EXPECT_FALSE(rd.next(r));
  rd.reset();
  ASSERT_TRUE(rd.next(r));
  EXPECT_EQ(r.vaddr, 42u);
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileNotOk) {
  TraceReader rd("/nonexistent/path/x.mtrace");
  EXPECT_FALSE(rd.ok());
  InstrRecord r;
  EXPECT_FALSE(rd.next(r));
}

TEST(TraceIo, RejectsBadMagic) {
  const std::string path = tmpPath("bad.mtrace");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const char junk[32] = "this is not a trace file";
  std::fwrite(junk, 1, sizeof junk, f);
  std::fclose(f);
  TraceReader rd(path);
  EXPECT_FALSE(rd.ok());
  std::remove(path.c_str());
}

TEST(TraceIo, GeneratorCaptureReplayEquivalence) {
  // Capture a synthetic stream and verify the replay drives identically.
  const std::string path = tmpPath("capture.mtrace");
  const auto wl = workloadByName("eon");
  const AddressLayout layout;
  SyntheticTraceGenerator gen(wl, layout, 2000, 11);
  {
    TraceWriter w(path);
    InstrRecord r;
    while (gen.next(r)) w.write(r);
    w.close();
  }
  gen.reset();
  TraceReader rd(path);
  ASSERT_TRUE(rd.ok());
  InstrRecord a, b;
  while (gen.next(a)) {
    ASSERT_TRUE(rd.next(b));
    EXPECT_EQ(a.vaddr, b.vaddr);
    EXPECT_EQ(a.seq, b.seq);
  }
  EXPECT_FALSE(rd.next(b));
  std::remove(path.c_str());
}

// --- v2 format, validation and failure-mode regressions ---------------------

namespace detail {

constexpr std::size_t kHeaderBytesV2 = 52;
constexpr std::size_t kRecordBytes = 26;

/// Write `n` deterministic load records to `path`; returns the records.
std::vector<InstrRecord> writeTrace(const std::string& path, std::uint64_t n) {
  std::vector<InstrRecord> recs;
  TraceWriter w(path);
  EXPECT_TRUE(w.ok());
  for (std::uint64_t i = 0; i < n; ++i) {
    InstrRecord r;
    r.seq = i;
    r.kind = static_cast<InstrKind>(i % 3);
    r.vaddr = 0x4000 + i * 16;
    r.size = r.isMem() ? 8 : 0;
    recs.push_back(r);
    w.write(r);
  }
  EXPECT_TRUE(w.close());
  return recs;
}

/// Overwrite one byte at `offset`.
void corruptByte(const std::string& path, long offset, std::uint8_t value) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(value, f);
  std::fclose(f);
}

void truncateTo(const std::string& path, long size) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<char> bytes(static_cast<std::size_t>(size));
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

}  // namespace detail

TEST(TraceIoV2, WriterProducesV2WithLayout) {
  const std::string path = tmpPath("v2layout.mtrace");
  AddressLayout::Params params;
  params.page_bytes = 16 * 1024;  // non-default, must round-trip
  {
    TraceWriter w(path, AddressLayout(params));
    InstrRecord r;
    r.kind = InstrKind::kLoad;
    r.vaddr = 64;
    r.size = 8;
    w.write(r);
    ASSERT_TRUE(w.close());
  }
  TraceReader rd(path);
  ASSERT_TRUE(rd.ok()) << rd.error();
  EXPECT_EQ(rd.layoutParams().page_bytes, 16u * 1024);
  EXPECT_EQ(rd.layoutParams().addr_bits, params.addr_bits);
  EXPECT_EQ(rd.layoutParams().l1_banks, params.l1_banks);
  std::remove(path.c_str());
}

TEST(TraceIoV2, TruncatedFileIsHardErrorAtOpen) {
  const std::string path = tmpPath("trunc.mtrace");
  detail::writeTrace(path, 50);
  // Chop off the tail of the last record: the header still promises 50.
  detail::truncateTo(path, static_cast<long>(detail::kHeaderBytesV2 +
                                             49 * detail::kRecordBytes + 7));
  TraceReader rd(path);
  EXPECT_FALSE(rd.ok());
  EXPECT_NE(rd.error().find("truncated"), std::string::npos) << rd.error();
  InstrRecord r;
  EXPECT_FALSE(rd.next(r));
  std::remove(path.c_str());
}

TEST(TraceIoV2, WrappingRecordCountIsHardErrorAtOpen) {
  // Header counts of k + 2^63 records: 2^63 * 26 bytes wraps to 0 in 64
  // bits, so the promised size equals a k-record file's. An empty file and
  // a 10-record file, each with bit 63 of its count set, must both be
  // refused at open rather than served from an empty or stale buffer.
  for (const std::uint64_t records : {0u, 10u}) {
    const std::string path = tmpPath("wrap.mtrace");
    detail::writeTrace(path, records);
    detail::corruptByte(path, 15, 0x80);  // top byte of the u64 at 8
    TraceReader rd(path);
    EXPECT_FALSE(rd.ok()) << records;
    EXPECT_NE(rd.error().find("truncated or corrupt"), std::string::npos)
        << rd.error();
    InstrRecord r;
    EXPECT_FALSE(rd.next(r)) << records;
    std::remove(path.c_str());
  }
}

// The layout fields (header bytes 24–51) lie outside the record checksum.
// A header whose layout breaks one of AddressLayout's rules fails the open
// with that rule, instead of aborting wherever the reader's layout() is
// built (`trace_tools analyze`, the phase planner).
TEST(TraceIoV2, InvalidHeaderLayoutFailsTheOpen) {
  struct Bad {
    long offset;  ///< of the u32 field: addr_bits at 24 … l1_banks at 48
    std::uint32_t value;
    const char* rule;
  };
  const Bad cases[] = {
      {24, 19, "addr_bits 19 is outside 20..48"},
      {24, 49, "addr_bits 49 is outside 20..48"},
      {28, 3 * 1024, "page_bytes 3072 is not a power of two"},
      {32, 48, "line_bytes 48 is not a power of two"},
      {36, 0, "sub_block_bytes 0 is not a power of two"},
      {40, 3 * 8192, "l1_bytes 24576 is not a power of two"},
      {44, 3, "l1_assoc 3 is not a power of two"},
      {48, 6, "l1_banks 6 is not a power of two"},
      {32, 4096, "line_bytes 4096 is not smaller than page_bytes 4096"},
      {36, 128, "sub_block_bytes 128 exceeds line_bytes 64"},
      {44, 1024,
       "an L1 of 32768 bytes does not divide into 1024 ways of 64-byte "
       "lines"},
      {48, 256, "the L1's 128 sets do not divide across 256 banks"},
  };
  const std::string path = tmpPath("badlayout.mtrace");
  for (const Bad& bad : cases) {
    detail::writeTrace(path, 4);
    for (int i = 0; i < 4; ++i)
      detail::corruptByte(path, bad.offset + i,
                          static_cast<std::uint8_t>(bad.value >> (8 * i)));
    const TraceReader rd(path);
    EXPECT_FALSE(rd.ok()) << bad.rule;
    EXPECT_NE(rd.error().find("address layout is invalid (" +
                              std::string(bad.rule) + ")"),
              std::string::npos)
        << rd.error();
  }
  // One byte: byte 29 set to 0x11 makes page_bytes 0x1100.
  detail::writeTrace(path, 4);
  detail::corruptByte(path, 29, 0x11);
  const TraceReader rd(path);
  EXPECT_FALSE(rd.ok());
  EXPECT_NE(rd.error().find("page_bytes 4352 is not a power of two"),
            std::string::npos)
      << rd.error();
  std::remove(path.c_str());
}

TEST(TraceIoV2, TrailingGarbageIsHardErrorAtOpen) {
  const std::string path = tmpPath("tail.mtrace");
  detail::writeTrace(path, 10);
  std::FILE* f = std::fopen(path.c_str(), "ab");
  std::fputc('x', f);
  std::fclose(f);
  TraceReader rd(path);
  EXPECT_FALSE(rd.ok());
  std::remove(path.c_str());
}

TEST(TraceIoV2, BadKindByteRejectedAtRead) {
  const std::string path = tmpPath("badkind.mtrace");
  detail::writeTrace(path, 20);
  // Record 7's kind byte -> 9 (no such InstrKind).
  detail::corruptByte(path,
                      static_cast<long>(detail::kHeaderBytesV2 +
                                        7 * detail::kRecordBytes + 16),
                      9);
  TraceReader rd(path);
  ASSERT_TRUE(rd.ok());
  InstrRecord r;
  std::size_t served = 0;
  while (rd.next(r)) ++served;
  EXPECT_EQ(served, 7u);
  EXPECT_FALSE(rd.ok());
  EXPECT_NE(rd.error().find("invalid instruction kind"), std::string::npos)
      << rd.error();
  std::remove(path.c_str());
}

TEST(TraceIoV2, BadSizeByteRejectedAtRead) {
  const std::string path = tmpPath("badsize.mtrace");
  detail::writeTrace(path, 20);
  // Record 1 is a load (kind = 1 % 3); zero its size byte.
  detail::corruptByte(path,
                      static_cast<long>(detail::kHeaderBytesV2 +
                                        1 * detail::kRecordBytes + 17),
                      0);
  TraceReader rd(path);
  ASSERT_TRUE(rd.ok());
  InstrRecord r;
  std::size_t served = 0;
  while (rd.next(r)) ++served;
  EXPECT_EQ(served, 1u);
  EXPECT_FALSE(rd.ok());
  EXPECT_NE(rd.error().find("invalid access size"), std::string::npos)
      << rd.error();
  std::remove(path.c_str());
}

/// Write ALU records numbered `seqs`, in that order.
void writeNumbered(const std::string& path,
                   const std::vector<SeqNum>& seqs) {
  TraceWriter w(path);
  ASSERT_TRUE(w.ok());
  for (const SeqNum seq : seqs) {
    InstrRecord r;
    r.seq = seq;
    w.write(r);
  }
  ASSERT_TRUE(w.close());
}

/// Drain `path`; returns the records served before the stream stopped.
std::size_t drainCount(TraceReader& rd) {
  InstrRecord r;
  std::size_t served = 0;
  while (rd.next(r)) ++served;
  return served;
}

TEST(TraceIoV2, RecordsNotNumberedFromZeroAreRefused) {
  const std::string path = tmpPath("seqstart.mtrace");
  writeNumbered(path, {5, 6, 7, 8});
  TraceReader rd(path);
  ASSERT_TRUE(rd.ok()) << rd.error();
  EXPECT_EQ(drainCount(rd), 0u);
  EXPECT_FALSE(rd.ok());
  EXPECT_NE(rd.error().find("record 0 has seq 5"), std::string::npos)
      << rd.error();
  EXPECT_NE(rd.error().find("numbered 0, 1, 2"), std::string::npos)
      << rd.error();
  std::remove(path.c_str());
}

TEST(TraceIoV2, GapInRecordNumbersIsRefused) {
  const std::string path = tmpPath("seqgap.mtrace");
  writeNumbered(path, {0, 1, 2, 4, 5});
  TraceReader rd(path);
  ASSERT_TRUE(rd.ok()) << rd.error();
  EXPECT_EQ(drainCount(rd), 3u);
  EXPECT_FALSE(rd.ok());
  EXPECT_NE(rd.error().find("record 3 has seq 4"), std::string::npos)
      << rd.error();
  std::remove(path.c_str());
}

TEST(TraceIoV2, PayloadCorruptionCaughtByChecksum) {
  const std::string path = tmpPath("checksum.mtrace");
  detail::writeTrace(path, 30);
  // Flip an address byte: every record still decodes as valid, only the
  // checksum can notice.
  detail::corruptByte(path,
                      static_cast<long>(detail::kHeaderBytesV2 +
                                        12 * detail::kRecordBytes + 9),
                      0xAB);
  TraceReader rd(path);
  ASSERT_TRUE(rd.ok());
  InstrRecord r;
  while (rd.next(r)) {
  }
  EXPECT_FALSE(rd.ok());
  EXPECT_NE(rd.error().find("checksum"), std::string::npos) << rd.error();
  std::remove(path.c_str());
}

TEST(TraceIoV2, FinishChecksumVerifiesBeyondACap) {
  const std::string path = tmpPath("cap_corrupt.mtrace");
  detail::writeTrace(path, 40);
  // Corrupt an address byte deep in the file — far beyond the few records
  // a capped replay serves, so only finishChecksum() can catch it.
  detail::corruptByte(path,
                      static_cast<long>(detail::kHeaderBytesV2 +
                                        35 * detail::kRecordBytes + 9),
                      0xEE);
  TraceReader rd(path);
  ASSERT_TRUE(rd.ok());
  InstrRecord r;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(rd.next(r));
  EXPECT_FALSE(rd.finishChecksum());
  EXPECT_FALSE(rd.ok());
  EXPECT_NE(rd.error().find("checksum"), std::string::npos) << rd.error();
  rd.reset();  // sticky here too
  EXPECT_FALSE(rd.next(r));
  std::remove(path.c_str());
}

TEST(TraceIoV2, FinishChecksumCleanLeavesStreamReplayable) {
  const std::string path = tmpPath("cap_clean.mtrace");
  detail::writeTrace(path, 40);
  TraceReader rd(path);
  InstrRecord r;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(rd.next(r));
  EXPECT_TRUE(rd.finishChecksum());
  EXPECT_TRUE(rd.ok());
  EXPECT_FALSE(rd.next(r));  // finish leaves the reader at end-of-stream
  rd.reset();
  EXPECT_EQ(drain(rd).size(), 40u);
  EXPECT_TRUE(rd.ok());
  EXPECT_TRUE(rd.finishChecksum());  // fully-drained stream: no-op
  std::remove(path.c_str());
}

TEST(TraceIoV2, FailureIsStickyAcrossReset) {
  const std::string path = tmpPath("sticky.mtrace");
  detail::writeTrace(path, 5);
  detail::corruptByte(
      path, static_cast<long>(detail::kHeaderBytesV2 + 16), 9);  // kind
  TraceReader rd(path);
  InstrRecord r;
  EXPECT_FALSE(rd.next(r));
  EXPECT_FALSE(rd.ok());
  rd.reset();  // must NOT resurrect the stream
  EXPECT_FALSE(rd.ok());
  EXPECT_FALSE(rd.next(r));
  EXPECT_FALSE(rd.error().empty());
  std::remove(path.c_str());
}

TEST(TraceIoV2, EmptyTraceIsCleanEof) {
  const std::string path = tmpPath("empty.mtrace");
  {
    TraceWriter w(path);
    ASSERT_TRUE(w.close());
  }
  TraceReader rd(path);
  ASSERT_TRUE(rd.ok()) << rd.error();
  EXPECT_EQ(rd.total(), 0u);
  InstrRecord r;
  EXPECT_FALSE(rd.next(r));
  EXPECT_TRUE(rd.ok());  // end of stream, not an error
  EXPECT_TRUE(rd.error().empty());
  std::remove(path.c_str());
}

TEST(TraceIoV2, RefusesV1Header) {
  // The pre-v2 layout: 16-byte header (magic, version 1, record count), no
  // checksum, no layout, then records.
  const std::string path = tmpPath("v1.mtrace");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  auto put32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) std::fputc((v >> (8 * i)) & 0xFF, f);
  };
  put32(kTraceMagic);
  put32(1);
  for (int i = 0; i < 8; ++i) std::fputc(i == 0 ? 1 : 0, f);  // count = 1
  for (std::size_t i = 0; i < detail::kRecordBytes; ++i) std::fputc(0, f);
  std::fclose(f);
  TraceReader rd(path);
  EXPECT_FALSE(rd.ok());
  EXPECT_NE(rd.error().find("unsupported trace version 1"), std::string::npos)
      << rd.error();
  std::remove(path.c_str());
}

TEST(VectorTraceSource, ServesAndResets) {
  std::vector<InstrRecord> v(3);
  v[0].vaddr = 1;
  v[1].vaddr = 2;
  v[2].vaddr = 3;
  VectorTraceSource src(v);
  InstrRecord r;
  EXPECT_TRUE(src.next(r));
  EXPECT_EQ(r.vaddr, 1u);
  const auto rest = drain(src);
  EXPECT_EQ(rest.size(), 2u);
  src.reset();
  EXPECT_EQ(drain(src).size(), 3u);
}

}  // namespace
}  // namespace malec::trace
