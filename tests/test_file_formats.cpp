// The payload checksum all four file formats share (binio::checksum): its
// known-answer vectors, which docs/FILE_FORMATS.md prints for external
// producers, and table-driven checks over one small file of each format —
// a one-bit flip in any byte a checksum covers is refused, so are flips of
// bit 63 in two words of one fold, and a file of the previous version is
// refused by its version, never reported as corrupt.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/state_io.h"
#include "common/binio.h"
#include "phase/sample_plan.h"
#include "sim/experiment.h"
#include "sim/presets.h"
#include "sim/registry.h"
#include "store/result_store.h"
#include "trace/trace_io.h"
#include "trace/workloads.h"

namespace malec {
namespace {

using Bytes = std::vector<std::uint8_t>;
/// [begin, end) byte ranges of a file.
using Ranges = std::vector<std::pair<std::size_t, std::size_t>>;

std::string tmpPath(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

Bytes slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

/// Overwrite `n` bytes at `offset` in place (no truncation, so thousands
/// of patches stay cheap).
void patch(const std::string& path, std::size_t offset, const void* p,
           std::size_t n) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(p, 1, n, f), n);
  std::fclose(f);
}

// --- known answers ---------------------------------------------------------

/// The checksum written out byte by byte: each 8-byte word assembled from
/// its little-endian bytes, then the tail bytes one at a time, each step
/// FNV-1a's xor-then-multiply followed by the xor-shift down-mix.
/// Independent of binio's codecs.
std::uint64_t referenceChecksum(std::uint64_t h, const Bytes& b) {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  const auto step = [&h](std::uint64_t x) {
    h = (h ^ x) * kPrime;
    h ^= h >> 32;
  };
  std::size_t i = 0;
  for (; i + 8 <= b.size(); i += 8) {
    std::uint64_t word = 0;
    for (int k = 7; k >= 0; --k) word = (word << 8) | b[i + k];
    step(word);
  }
  for (; i < b.size(); ++i) step(b[i]);
  return h;
}

/// The `n` bytes 01 02 03 …: byte i holds i + 1.
Bytes counting(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(i + 1);
  return b;
}

/// A 26-byte trace record, laid out by hand (docs/FILE_FORMATS.md).
Bytes recordBytes(std::uint64_t seq, std::uint64_t vaddr, std::uint8_t kind,
                  std::uint8_t size, std::uint32_t dep, std::uint32_t adep) {
  Bytes b;
  const auto le = [&b](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i)
      b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  le(seq, 8);
  le(vaddr, 8);
  b.push_back(kind);
  b.push_back(size);
  le(dep, 4);
  le(adep, 4);
  return b;
}

TEST(Binio, ChecksumKnownAnswers) {
  constexpr std::uint64_t kOffset = 0xcbf29ce484222325ull;
  ASSERT_EQ(binio::kFnvOffset, kOffset);
  const std::pair<std::size_t, std::uint64_t> vectors[] = {
      {0, 0xcbf29ce484222325ull},  {1, 0xaf63bc4c29620a60ull},
      {7, 0x5bd02c0581d32c11ull},  {8, 0x1b77512ca33c0100ull},
      {9, 0xe7bff7d9b94a3592ull},  {16, 0xb494af3c0e136f77ull}};
  for (const auto& [n, expect] : vectors) {
    const Bytes b = counting(n);
    EXPECT_EQ(referenceChecksum(kOffset, b), expect) << n << " bytes";
    EXPECT_EQ(binio::checksum(kOffset, b.data(), b.size()), expect)
        << n << " bytes";
  }

  // One record folds as three words, then bytes 24 and 25; a trace folds
  // record by record, so two records do NOT fold as one 52-byte stream.
  const Bytes r0 = recordBytes(0, 0x10000000, 1, 8, 0, 0);
  const Bytes r1 = recordBytes(1, 0x10000040, 2, 4, 1, 0);
  ASSERT_EQ(r0.size(), 26u);
  constexpr std::uint64_t kOneRecord = 0x38cec2b2cd88499cull;
  constexpr std::uint64_t kTwoRecords = 0x4f111fcff4165ab4ull;
  EXPECT_EQ(referenceChecksum(kOffset, r0), kOneRecord);
  EXPECT_EQ(binio::checksum(kOffset, r0.data(), r0.size()), kOneRecord);
  EXPECT_EQ(referenceChecksum(kOneRecord, r1), kTwoRecords);
  Bytes both = r0;
  both.insert(both.end(), r1.begin(), r1.end());
  EXPECT_NE(referenceChecksum(kOffset, both), kTwoRecords);

  // TraceWriter stores exactly that fold in the header, and TraceReader
  // accepts it.
  const std::string path = tmpPath("known_answer.mtrace");
  {
    trace::TraceWriter w(path);
    trace::InstrRecord a;
    a.seq = 0;
    a.vaddr = 0x10000000;
    a.kind = trace::InstrKind::kLoad;
    a.size = 8;
    trace::InstrRecord b;
    b.seq = 1;
    b.vaddr = 0x10000040;
    b.kind = trace::InstrKind::kStore;
    b.size = 4;
    b.dep_distance = 1;
    w.write(a);
    w.write(b);
    ASSERT_TRUE(w.close()) << w.error();
  }
  const Bytes file = slurp(path);
  ASSERT_EQ(file.size(), 52u + 2 * 26);
  EXPECT_EQ(Bytes(file.begin() + 52, file.begin() + 78), r0);
  EXPECT_EQ(Bytes(file.begin() + 78, file.end()), r1);
  std::uint64_t stored = 0;
  for (int k = 7; k >= 0; --k) stored = (stored << 8) | file[16 + k];
  EXPECT_EQ(stored, kTwoRecords);
  trace::TraceReader rd(path);
  ASSERT_TRUE(rd.ok()) << rd.error();
  EXPECT_EQ(trace::drain(rd).size(), 2u);
  EXPECT_TRUE(rd.ok()) << rd.error();
  std::remove(path.c_str());
}

// --- one small file of each format ------------------------------------------

const sim::RunOutput& smallRun() {
  static const sim::RunOutput out = [] {
    sim::RunConfig rc;
    rc.workload = trace::workloadByName("gcc");
    rc.interface_cfg = sim::presetRegistry().get("MALEC")();
    rc.system = sim::defaultSystem();
    rc.instructions = 2000;
    rc.seed = 1;
    return sim::runOne(rc);
  }();
  return out;
}

constexpr std::uint64_t kFingerprint = 42;
/// Every format's version is the u32 after its 4-byte magic.
constexpr std::size_t kVersionAt = 4;

/// One file format under test: how to write a small file, which byte
/// ranges its checksum covers (the fold's words start at each range's
/// first byte), and how to read it back — the reader's error, or "" when
/// the file loaded.
struct Format {
  std::string name;
  std::string file;
  std::uint32_t previous_version = 0;
  std::string version_noun;
  std::function<void(const std::string&)> write;
  std::function<Ranges(const Bytes&)> covered;
  std::function<std::string(const std::string&)> read;
};

/// Every byte after a StateIO container's 32-byte header.
Ranges statePayload(const Bytes& b) { return {{32, b.size()}}; }

std::vector<Format> formats() {
  std::vector<Format> f;

  Format tr;
  tr.name = "trace";
  tr.file = "flip.mtrace";
  tr.previous_version = 2;
  tr.version_noun = "trace";
  tr.write = [](const std::string& path) {
    trace::TraceWriter w(path);
    for (std::uint64_t i = 0; i < 8; ++i) {
      trace::InstrRecord r;
      r.seq = i;
      r.kind = static_cast<trace::InstrKind>(i % 3);
      r.vaddr = r.isMem() ? 0x10000000 + 24 * i : 0;
      r.size = r.isMem() ? 8 : 0;
      r.dep_distance = static_cast<std::uint32_t>(i / 2);
      w.write(r);
    }
    ASSERT_TRUE(w.close()) << w.error();
  };
  // One range per record: the trace checksum folds each record on its own.
  tr.covered = [](const Bytes& b) {
    Ranges ranges;
    for (std::size_t at = 52; at < b.size(); at += 26)
      ranges.emplace_back(at, at + 26);
    return ranges;
  };
  tr.read = [](const std::string& path) -> std::string {
    trace::TraceReader rd(path);
    if (rd.ok()) (void)trace::drain(rd);
    return rd.ok() ? "" : rd.error();
  };
  f.push_back(tr);

  Format ck;
  ck.name = "StateIO container";
  ck.file = "flip.mckpt";
  ck.previous_version = 6;
  ck.version_noun = "checkpoint";
  ck.write = [](const std::string& path) {
    // Sections of odd sizes, so the payload ends in a partial word.
    ckpt::StateWriter w;
    w.beginSection("alpha");
    w.u32(7);
    w.u64(0x0123456789abcdefull);
    w.str("odd");
    w.endSection();
    w.beginSection("beta");
    w.u8(0x5a);
    w.f64(0.1);
    w.endSection();
    w.beginSection("gamma");
    const std::uint8_t raw[5] = {1, 2, 3, 4, 5};
    w.bytes(raw, sizeof raw);
    w.endSection();
    std::string err;
    ASSERT_TRUE(w.writeTo(path, err)) << err;
  };
  ck.covered = statePayload;
  ck.read = [](const std::string& path) -> std::string {
    const ckpt::StateReader r(path);
    return r.ok() ? "" : r.error();
  };
  f.push_back(ck);

  Format st;
  st.name = "result store";
  st.file = "flip.mstore";
  st.previous_version = 2;
  st.version_noun = "result store";
  st.write = [](const std::string& path) {
    store::ResultStore rs;
    store::StoreSegment seg;
    seg.suite = "fig4a";
    seg.fingerprint = kFingerprint;
    seg.instructions = 2000;
    seg.seed = 1;
    rs.appendSegment(seg, {{"gcc", "MALEC", &smallRun()}});
    std::string err;
    ASSERT_TRUE(rs.save(path, err)) << err;
  };
  st.covered = statePayload;
  st.read = [](const std::string& path) -> std::string {
    store::ResultStore rs;
    std::string err;
    return rs.load(path, err) ? "" : err;
  };
  f.push_back(st);

  Format pl;
  pl.name = "sample plan";
  pl.file = "flip.mplan";
  pl.previous_version = 1;
  pl.version_noun = "sample-plan";
  pl.write = [](const std::string& path) {
    phase::SamplePlan p;
    p.interval_size = 1'000;
    p.warmup_instructions = 500;
    p.trace_records = 10'000;
    p.trace_checksum = 0xDEADBEEF12345678ull;
    p.picks = {{1, 4'000}, {4, 3'500}, {9, 2'500}};
    std::string err;
    ASSERT_TRUE(phase::saveSamplePlan(p, path, err)) << err;
  };
  pl.covered = [](const Bytes& b) {
    return Ranges{{8, 48}, {64, b.size()}};
  };
  pl.read = [](const std::string& path) -> std::string {
    phase::SamplePlan p;
    std::string err;
    return phase::loadSamplePlan(path, p, err) ? "" : err;
  };
  f.push_back(pl);

  return f;
}

TEST(FileFormats, EveryCoveredByteIsChecked) {
  for (const Format& fmt : formats()) {
    SCOPED_TRACE(fmt.name);
    const std::string path = tmpPath(fmt.file);
    fmt.write(path);
    const Bytes clean = slurp(path);
    ASSERT_EQ(fmt.read(path), "");
    for (const auto& [begin, end] : fmt.covered(clean)) {
      ASSERT_LE(end, clean.size());
      for (std::size_t i = begin; i < end; ++i) {
        const std::uint8_t bad =
            static_cast<std::uint8_t>(clean[i] ^ (1u << (i % 8)));
        patch(path, i, &bad, 1);
        const std::string err = fmt.read(path);
        patch(path, i, &clean[i], 1);
        EXPECT_NE(err, "") << "a flip of byte " << i << " loaded";
      }
    }
    std::remove(path.c_str());
  }
}

// A multiply carries a change only upward, so a checksum of FNV-1a steps
// alone lets two flips of bit 63 in words of one fold cancel — for
// instance the top vaddr bits of trace records 0 and 1, which nothing else
// range-checks. The step's down-mix is what refuses these.
TEST(FileFormats, TopBitFlipsInTwoWordsAreRefused) {
  for (const Format& fmt : formats()) {
    SCOPED_TRACE(fmt.name);
    const std::string path = tmpPath(fmt.file);
    fmt.write(path);
    const Bytes clean = slurp(path);
    // The top byte of every full word the checksum folds, in file order.
    std::vector<std::size_t> tops;
    for (const auto& [begin, end] : fmt.covered(clean))
      for (std::size_t w = begin; w + 8 <= end; w += 8) tops.push_back(w + 7);
    // Each word paired with the next three: a trace record has three.
    for (std::size_t j = 0; j < tops.size(); ++j) {
      for (std::size_t d = 1; d <= 3 && j + d < tops.size(); ++d) {
        const std::size_t a = tops[j];
        const std::size_t b = tops[j + d];
        const auto bad_a = static_cast<std::uint8_t>(clean[a] ^ 0x80);
        const auto bad_b = static_cast<std::uint8_t>(clean[b] ^ 0x80);
        patch(path, a, &bad_a, 1);
        patch(path, b, &bad_b, 1);
        const std::string err = fmt.read(path);
        patch(path, a, &clean[a], 1);
        patch(path, b, &clean[b], 1);
        EXPECT_NE(err, "")
            << "bit 63 flips at bytes " << a << " and " << b << " loaded";
      }
    }
    std::remove(path.c_str());
  }
}

TEST(FileFormats, PreviousVersionIsRefusedByVersion) {
  for (const Format& fmt : formats()) {
    SCOPED_TRACE(fmt.name);
    const std::string path = tmpPath(fmt.file);
    fmt.write(path);
    std::uint8_t version[4];
    binio::put32(version, fmt.previous_version);
    patch(path, kVersionAt, version, sizeof version);
    const std::string err = fmt.read(path);
    const std::string expect = "unsupported " + fmt.version_noun +
                               " version " +
                               std::to_string(fmt.previous_version);
    EXPECT_NE(err.find(expect), std::string::npos) << err;
    EXPECT_EQ(err.find("corrupt"), std::string::npos) << err;
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace malec
