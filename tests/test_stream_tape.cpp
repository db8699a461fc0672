// trace::StreamTape — a synthetic stream recorded once into memory — and
// its per-run TapeReader cursor.
//
// A reader must return exactly the records the tape was given, field by
// field. Simulated outputs cannot stand in for that check: a 16-aligned
// 16-byte access fits in one 16-byte sub-block, so a codec that decoded
// size 16 as 8 would move no cycle count of djpeg or mpeg2dec, and the
// goldens would not see it. Hence every registered profile and a set of
// hand-made edge records are compared record by record here.
#include "trace/stream_tape.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "common/address.h"
#include "sim/presets.h"
#include "trace/synth_generator.h"
#include "trace/trace_io.h"
#include "trace/workloads.h"

namespace malec::trace {
namespace {

constexpr std::uint64_t kRecords = 20'000;
constexpr std::uint32_t kMaxDistance =
    std::numeric_limits<std::uint32_t>::max();

bool sameRecord(const InstrRecord& a, const InstrRecord& b) {
  return a.seq == b.seq && a.kind == b.kind && a.vaddr == b.vaddr &&
         a.size == b.size && a.dep_distance == b.dep_distance &&
         a.addr_dep_distance == b.addr_dep_distance;
}

void expectSameRecord(const InstrRecord& a, const InstrRecord& b,
                      std::uint64_t i) {
  EXPECT_EQ(a.seq, b.seq) << "record " << i;
  EXPECT_EQ(a.kind, b.kind) << "record " << i;
  EXPECT_EQ(a.vaddr, b.vaddr) << "record " << i;
  EXPECT_EQ(a.size, b.size) << "record " << i;
  EXPECT_EQ(a.dep_distance, b.dep_distance) << "record " << i;
  EXPECT_EQ(a.addr_dep_distance, b.addr_dep_distance) << "record " << i;
}

/// Reads `reader` to its end against `expected`, then checks it stays
/// ended. Stops at the first record that differs.
void expectReads(TapeReader& reader, const std::vector<InstrRecord>& expected,
                 const char* what) {
  InstrRecord got;
  for (std::uint64_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(reader.next(got)) << what << ": ended at record " << i;
    if (!sameRecord(expected[i], got)) {
      expectSameRecord(expected[i], got, i);
      FAIL() << what << " differs at record " << i;
    }
  }
  EXPECT_FALSE(reader.next(got)) << what << ": ran long";
  EXPECT_FALSE(reader.next(got)) << what << ": an ended tape must stay ended";
}

InstrRecord memRecord(std::uint64_t seq, InstrKind kind, Addr vaddr,
                      std::uint8_t size) {
  InstrRecord r;
  r.seq = seq;
  r.kind = kind;
  r.vaddr = vaddr;
  r.size = size;
  return r;
}

AddressLayout smallL1Layout() {
  AddressLayout::Params small_l1;
  small_l1.l1_bytes = 1024;
  return AddressLayout(small_l1);
}

// All 38 registered profiles under the default layout and a 1 KB-L1 one
// (4 sets, so the same profile draws other addresses): every field of
// every record comes back. djpeg and mpeg2dec access 16 bytes at a time.
TEST(StreamTape, EveryProfileRoundTripsUnderBothLayouts) {
  ASSERT_EQ(allWorkloads().size(), 38u);
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
  for (const AddressLayout& layout :
       {sim::defaultSystem().layout, smallL1Layout()}) {
    for (const WorkloadProfile& wl : allWorkloads()) {
      SyntheticTraceGenerator gen(wl, layout, kRecords, 1);
      const std::vector<InstrRecord> expected = drain(gen);
      ASSERT_EQ(expected.size(), kRecords);
      gen.reset();
      const StreamTape tape(gen);
      EXPECT_EQ(tape.records(), kRecords) << wl.name;
      TapeReader reader(tape);
      expectReads(reader, expected, wl.name.c_str());
      if (HasFailure()) return;
      bytes += tape.bytes();
      records += tape.records();
    }
  }
  // The encoding is what lets a row's tape stay small; a full-width vaddr
  // alone would be 8 bytes a memory record.
  EXPECT_LT(static_cast<double>(bytes) / static_cast<double>(records), 4.0);
}

// Negative deltas, deltas wider than 2^32 and the widest 64-bit ones,
// vaddr 0, dependency distances up to UINT32_MAX, every size, and ALU
// records of size 0 with and without dependencies.
TEST(StreamTape, EdgeRecordsRoundTrip) {
  std::vector<InstrRecord> recs;
  auto add = [&recs](InstrKind kind, Addr vaddr, std::uint8_t size,
                     std::uint32_t dep, std::uint32_t addr_dep) {
    InstrRecord r = memRecord(recs.size(), kind, vaddr, size);
    r.dep_distance = dep;
    r.addr_dep_distance = addr_dep;
    recs.push_back(r);
  };
  add(InstrKind::kLoad, 0x1234'5678'9ABCull, 8, 0, 0);  // wider than 2^32
  add(InstrKind::kStore, 0, 1, 1, 0);                   // back down to 0
  add(InstrKind::kOther, 0, 0, kMaxDistance, 0);
  add(InstrKind::kLoad, 0xFFFF'FFFF'FFFF'FFF0ull, 16, 0, kMaxDistance);
  add(InstrKind::kLoad, 0x10, 2, kMaxDistance, kMaxDistance);
  add(InstrKind::kStore, 0x8000'0000'0000'0000ull, 4, 3, 0);
  add(InstrKind::kStore, 0x7FFF'FFFF'FFFF'FFFFull, 1, 0, 7);  // delta -1
  add(InstrKind::kOther, 0, 0, 0, 0);
  add(InstrKind::kLoad, 0x7FFF'FFFF'FFFF'FFFFull, 16, 0, 0);  // delta 0
  add(InstrKind::kLoad, 0, 8, 2, 0);
  for (const std::uint8_t size : {1, 2, 4, 8, 16})
    add(InstrKind::kLoad, 0x1000 + size * 64ull, size, 0, 0);
  // Records of the widest encoding, back and forth across 2^63 with both
  // distances at UINT32_MAX, past several chunk boundaries.
  for (int i = 0; i < 20'000; ++i)
    add(i % 2 == 0 ? InstrKind::kLoad : InstrKind::kStore,
        i % 2 == 0 ? 0x8000'0000'0000'0000ull : 0, 16, kMaxDistance,
        kMaxDistance);
  add(InstrKind::kOther, 0, 0, 5, 0);

  VectorTraceSource src(recs);
  const StreamTape tape(src);
  EXPECT_EQ(tape.records(), recs.size());
  EXPECT_GT(tape.bytes(), 3 * StreamTape::kChunkBytes);
  TapeReader reader(tape);
  expectReads(reader, recs, "edge records");
}

TEST(StreamTape, ResetRewindsTheReader) {
  SyntheticTraceGenerator gen(workloadByName("djpeg"),
                              sim::defaultSystem().layout, kRecords, 3);
  const std::vector<InstrRecord> expected = drain(gen);
  gen.reset();
  const StreamTape tape(gen);
  TapeReader reader(tape);
  InstrRecord r;
  for (int i = 0; i < 12'345; ++i) ASSERT_TRUE(reader.next(r));
  reader.reset();
  expectReads(reader, expected, "after a mid-tape reset");
  reader.reset();
  expectReads(reader, expected, "after a reset at the end");
}

TEST(StreamTape, EmptySourceGivesAnEmptyTape) {
  VectorTraceSource src({});
  const StreamTape tape(src);
  EXPECT_EQ(tape.records(), 0u);
  EXPECT_EQ(tape.bytes(), 0u);
  TapeReader reader(tape);
  InstrRecord r;
  EXPECT_FALSE(reader.next(r));
  reader.reset();
  EXPECT_FALSE(reader.next(r));
}

// Each run owns its cursor over one read-only tape: readers on several
// threads at once all read the whole stream.
TEST(StreamTape, ConcurrentReadersEachReadTheWholeTape) {
  SyntheticTraceGenerator gen(workloadByName("gcc"),
                              sim::defaultSystem().layout, kRecords, 1);
  const std::vector<InstrRecord> expected = drain(gen);
  gen.reset();
  const StreamTape tape(gen);
  std::vector<std::thread> readers;
  std::vector<int> mismatches(4, 0);
  for (std::size_t t = 0; t < mismatches.size(); ++t) {
    readers.emplace_back([&, t] {
      TapeReader reader(tape);
      InstrRecord r;
      std::size_t i = 0;
      for (; reader.next(r); ++i)
        if (i >= expected.size() || !sameRecord(expected[i], r))
          ++mismatches[t];
      if (i != expected.size()) ++mismatches[t];
    });
  }
  for (std::thread& th : readers) th.join();
  for (std::size_t t = 0; t < mismatches.size(); ++t)
    EXPECT_EQ(mismatches[t], 0) << "reader " << t;
}

// The recorder refuses a record the encoding would not return unchanged.
TEST(StreamTapeDeathTest, RefusesRecordsItCannotHold) {
  auto tapeOf = [](std::vector<InstrRecord> recs) {
    VectorTraceSource src(std::move(recs));
    const StreamTape tape(src);
  };
  EXPECT_DEATH(tapeOf({memRecord(0, InstrKind::kLoad, 0x40, 3)}),
               "record 0 cannot be taped: its size");
  EXPECT_DEATH(tapeOf({memRecord(0, InstrKind::kLoad, 0x40, 8),
                       memRecord(1, InstrKind::kStore, 0x40, 32)}),
               "record 1 cannot be taped: its size");
  EXPECT_DEATH(tapeOf({memRecord(0, InstrKind::kStore, 0x40, 0)}),
               "record 0 cannot be taped: its size");
  EXPECT_DEATH(tapeOf({memRecord(0, InstrKind::kOther, 0x40, 0)}),
               "record 0 cannot be taped: a non-memory record");
  EXPECT_DEATH(tapeOf({memRecord(0, InstrKind::kOther, 0, 4)}),
               "record 0 cannot be taped: a non-memory record");
  EXPECT_DEATH(tapeOf({memRecord(1, InstrKind::kOther, 0, 0)}),
               "record 0 cannot be taped: its seq");
  EXPECT_DEATH(tapeOf({memRecord(0, static_cast<InstrKind>(3), 0x40, 8)}),
               "record 0 cannot be taped: its kind");
}

}  // namespace
}  // namespace malec::trace
