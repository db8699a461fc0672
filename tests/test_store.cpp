// The `.mstore` result store contract (docs/FILE_FORMATS.md): format
// round trip, the strict rejection matrix (bad magic, version skew,
// truncation, mid-file corruption, duplicate fingerprints, index/blob
// disagreement), the RunOutput blob codec, the query engine's
// select/filter/sort/group-geomean semantics, exotic workload names
// surviving the StoreSink round trip, and — through the real malec_bench
// binary — a `--sink store` run that `malec_bench query` answers over.
#include "store/result_store.h"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/binio.h"
#include "sim/differential.h"
#include "sim/presets.h"
#include "sim/registry.h"
#include "sim/reporting.h"
#include "store/query.h"
#include "store/store_sink.h"
#include "sweep/result_codec.h"
#include "trace/workloads.h"

namespace malec::store {
namespace {

std::string tmpPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void flipByteAt(const std::string& path, std::uint64_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, static_cast<long>(offset), SEEK_SET);
  const int c = std::fgetc(f);
  std::fseek(f, static_cast<long>(offset), SEEK_SET);
  std::fputc(c ^ 0x5a, f);
  std::fclose(f);
}

/// One real run, cheap enough to clone: the store only cares that the
/// blob and the directory agree, so tests rename/retune copies freely.
const sim::RunOutput& baseRun() {
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

sim::RunOutput namedRun(const std::string& workload, const std::string& config,
                        double ipc_scale = 1.0) {
  sim::RunOutput out = baseRun();
  out.benchmark = workload;
  out.config = config;
  out.ipc *= ipc_scale;
  out.total_pj *= 2.0 - ipc_scale;
  return out;
}

/// Stored run `i`'s full RunOutput, decoded from its blob.
bool decodeStored(const ResultStore& rs, std::size_t i, sim::RunOutput& out,
                  std::string& err) {
  const std::vector<std::uint8_t>& blob = rs.runs()[i].blob;
  return sweep::decodeRunOutput(blob.data(), blob.size(), out, err);
}

/// Two-segment store used by the round-trip and query tests.
ResultStore sampleStore() {
  ResultStore rs;
  const sim::RunOutput a = namedRun("gcc", "Base1ldst", 0.8);
  const sim::RunOutput b = namedRun("gcc", "MALEC", 1.2);
  const sim::RunOutput c = namedRun("mcf", "Base1ldst", 0.5);
  const sim::RunOutput d = namedRun("mcf", "MALEC", 0.9);
  StoreSegment s1;
  s1.suite = "fig4a";
  s1.fingerprint = 101;
  s1.instructions = 2000;
  s1.seed = 1;
  rs.appendSegment(s1, {{"gcc", "Base1ldst", &a},
                        {"gcc", "MALEC", &b},
                        {"mcf", "Base1ldst", &c},
                        {"mcf", "MALEC", &d}});
  const sim::RunOutput e = namedRun("gcc", "MALEC", 1.1);
  StoreSegment s2;
  s2.suite = "fig4b";
  s2.fingerprint = 202;
  s2.instructions = 2000;
  s2.seed = 9;
  rs.appendSegment(s2, {{"gcc", "MALEC", &e}});
  return rs;
}

// --- format round trip ------------------------------------------------------

TEST(StoreFormat, RoundTripPreservesSegmentsQueryFieldsAndBlobs) {
  const std::string path = tmpPath("roundtrip.mstore");
  std::remove(path.c_str());
  const ResultStore rs = sampleStore();
  std::string err;
  ASSERT_TRUE(rs.save(path, err)) << err;

  ResultStore back;
  ASSERT_TRUE(back.load(path, err)) << err;
  ASSERT_EQ(back.segments().size(), 2u);
  EXPECT_EQ(back.segments()[0].suite, "fig4a");
  EXPECT_EQ(back.segments()[0].fingerprint, 101u);
  EXPECT_EQ(back.segments()[0].run_count, 4u);
  EXPECT_EQ(back.segments()[1].seed, 9u);
  ASSERT_EQ(back.runs().size(), 5u);
  // Load reads every query field back out of the segment and the blob.
  for (std::size_t i = 0; i < back.runs().size(); ++i) {
    const StoreRun& got = back.runs()[i];
    const StoreRun& put = rs.runs()[i];
    EXPECT_EQ(got.blob, put.blob);
    EXPECT_EQ(got.segment, put.segment);
    EXPECT_EQ(got.workload, put.workload);
    EXPECT_EQ(got.config, put.config);
    EXPECT_EQ(got.seed, put.seed);
    EXPECT_EQ(got.instructions, put.instructions);
    EXPECT_EQ(got.cycles, put.cycles);
    EXPECT_EQ(got.ipc, put.ipc);
    EXPECT_EQ(got.total_pj, put.total_pj);
  }
  EXPECT_NE(back.findSegment(202), nullptr);
  EXPECT_EQ(back.findSegment(303), nullptr);

  // Full RunOutput survives: decode run 1 and spot-check the identity.
  sim::RunOutput out;
  ASSERT_TRUE(decodeStored(back, 1, out, err)) << err;
  EXPECT_EQ(out.benchmark, "gcc");
  EXPECT_EQ(out.config, "MALEC");
  EXPECT_EQ(out.cycles, back.runs()[1].cycles);
}

TEST(StoreFormat, SaveIsByteDeterministic) {
  const std::string p1 = tmpPath("det1.mstore");
  const std::string p2 = tmpPath("det2.mstore");
  const ResultStore rs = sampleStore();
  std::string err;
  ASSERT_TRUE(rs.save(p1, err)) << err;
  ASSERT_TRUE(rs.save(p2, err)) << err;
  EXPECT_EQ(slurp(p1), slurp(p2));
}

// --- rejection matrix -------------------------------------------------------

class StoreReject : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = tmpPath("reject.mstore");
    std::remove(path_.c_str());
    std::string err;
    ASSERT_TRUE(sampleStore().save(path_, err)) << err;
  }
  std::string path_;
};

TEST_F(StoreReject, BadMagic) {
  flipByteAt(path_, 0);
  ResultStore rs;
  std::string err;
  EXPECT_FALSE(rs.load(path_, err));
  EXPECT_NE(err.find("not a MALEC result store"), std::string::npos) << err;
}

TEST_F(StoreReject, VersionSkew) {
  flipByteAt(path_, 4);
  ResultStore rs;
  std::string err;
  EXPECT_FALSE(rs.load(path_, err));
  EXPECT_NE(err.find("unsupported result store version"), std::string::npos)
      << err;
}

// Version 1 stores carried a column directory this version no longer
// reads.
TEST_F(StoreReject, VersionOneIsRefused) {
  std::string bytes = slurp(path_);
  binio::put32(reinterpret_cast<std::uint8_t*>(bytes.data()) + 4, 1);
  std::ofstream(path_, std::ios::binary | std::ios::trunc) << bytes;
  ResultStore rs;
  std::string err;
  EXPECT_FALSE(rs.load(path_, err));
  EXPECT_NE(err.find("unsupported result store version 1"), std::string::npos)
      << err;
}

TEST_F(StoreReject, Truncation) {
  std::filesystem::resize_file(path_,
                               std::filesystem::file_size(path_) - 7);
  ResultStore rs;
  std::string err;
  EXPECT_FALSE(rs.load(path_, err));
  EXPECT_NE(err.find("truncated or corrupt"), std::string::npos) << err;
}

TEST_F(StoreReject, MidFileCorruptionFailsChecksum) {
  flipByteAt(path_, std::filesystem::file_size(path_) / 2);
  ResultStore rs;
  std::string err;
  EXPECT_FALSE(rs.load(path_, err));
  EXPECT_NE(err.find("corrupt"), std::string::npos) << err;
}

TEST_F(StoreReject, MissingFile) {
  ResultStore rs;
  std::string err;
  EXPECT_FALSE(rs.load(tmpPath("never_written.mstore"), err));
  EXPECT_FALSE(err.empty());
}

TEST(StoreDeathTest, AppendingDuplicateFingerprintAborts) {
  ResultStore rs = sampleStore();
  const sim::RunOutput a = namedRun("gcc", "MALEC");
  StoreSegment dup;
  dup.suite = "fig4a";
  dup.fingerprint = 101;  // already present
  EXPECT_DEATH(rs.appendSegment(dup, {{"gcc", "MALEC", &a}}),
               "would double every query row");
}

TEST(StoreDeathTest, EmptySegmentAborts) {
  ResultStore rs;
  StoreSegment seg;
  seg.fingerprint = 1;
  EXPECT_DEATH(rs.appendSegment(seg, {}), "empty store segment");
}

/// Write `bytes` to `path` with the payload checksum recomputed, so only
/// the store's own load checks can reject a patched field.
void writeWithChecksum(const std::string& path, std::string bytes) {
  auto* raw = reinterpret_cast<std::uint8_t*>(bytes.data());
  binio::put64(raw + 24, binio::checksum(binio::kFnvOffset, raw + 32,
                                         bytes.size() - 32));
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// Offset of run 0's u64 blob length in `bytes`, which the blob follows.
std::size_t blobLengthAt(const std::string& bytes, const ResultStore& rs) {
  const std::vector<std::uint8_t>& blob = rs.runs()[0].blob;
  std::string needle(8, '\0');
  binio::put64(reinterpret_cast<std::uint8_t*>(needle.data()), blob.size());
  needle.append(reinterpret_cast<const char*>(blob.data()), 16);
  return bytes.find(needle);
}

/// A one-run store saved at `path`, for the patched-file cases.
ResultStore oneRunStore(const std::string& path) {
  std::remove(path.c_str());
  ResultStore one;
  const sim::RunOutput a = namedRun("gcc", "MALEC");
  StoreSegment seg;
  seg.suite = "fig4a";
  seg.fingerprint = 7;
  one.appendSegment(seg, {{"gcc", "MALEC", &a}});
  std::string err;
  EXPECT_TRUE(one.save(path, err)) << err;
  return one;
}

// A one-run store whose blob length is patched to 2^60, checksum
// recomputed so only the count bound can catch it: load() fails with a
// message naming the file instead of an uncaught std::bad_alloc.
TEST(StoreDeathTest, HugeBlobLengthAbortsWithMessage) {
  const std::string path = tmpPath("hugeblob.mstore");
  const ResultStore one = oneRunStore(path);
  std::string bytes = slurp(path);
  const std::size_t at = blobLengthAt(bytes, one);
  ASSERT_NE(at, std::string::npos);
  binio::put64(reinterpret_cast<std::uint8_t*>(bytes.data()) + at,
               1ull << 60);
  writeWithChecksum(path, bytes);

  ResultStore rs;
  std::string err;
  EXPECT_DEATH((void)rs.load(path, err),
               "hugeblob.mstore': a count of 1152921504606846976 elements "
               "overruns");
  std::remove(path.c_str());
}

// The second segment's fingerprint patched to the first's: the same grid
// twice would double every query row.
TEST(StoreLoad, DuplicateSegmentFingerprintIsRefused) {
  const std::string path = tmpPath("dupfp.mstore");
  std::remove(path.c_str());
  ResultStore two;
  const sim::RunOutput a = namedRun("gcc", "MALEC");
  StoreSegment seg;
  seg.suite = "fig4a";
  seg.fingerprint = 0x1111222233334444ull;
  two.appendSegment(seg, {{"gcc", "MALEC", &a}});
  seg.fingerprint = 0x5555666677778888ull;
  two.appendSegment(seg, {{"gcc", "MALEC", &a}});
  std::string err;
  ASSERT_TRUE(two.save(path, err)) << err;

  std::string bytes = slurp(path);
  std::string second(8, '\0');
  binio::put64(reinterpret_cast<std::uint8_t*>(second.data()),
               0x5555666677778888ull);
  const std::size_t at = bytes.find(second);
  ASSERT_NE(at, std::string::npos);
  binio::put64(reinterpret_cast<std::uint8_t*>(bytes.data()) + at,
               0x1111222233334444ull);
  writeWithChecksum(path, bytes);

  ResultStore rs;
  EXPECT_FALSE(rs.load(path, err));
  EXPECT_NE(err.find("duplicate segment fingerprint " +
                     std::to_string(0x1111222233334444ull)),
            std::string::npos)
      << err;
  std::remove(path.c_str());
}

// store_meta's run count patched from 5 to 6: the segments hold 5.
TEST(StoreLoad, RunCountDisagreeingWithSegmentsIsRefused) {
  const std::string path = tmpPath("runcount.mstore");
  std::remove(path.c_str());
  std::string err;
  ASSERT_TRUE(sampleStore().save(path, err)) << err;

  // Section "store_meta": u32 name length, the name, u64 body length, then
  // the body's u32 segment count and u64 run count.
  std::string bytes = slurp(path);
  const std::size_t name = bytes.find("store_meta");
  ASSERT_NE(name, std::string::npos);
  auto* run_count = reinterpret_cast<std::uint8_t*>(bytes.data()) + name +
                    std::string("store_meta").size() + 8 + 4;
  ASSERT_EQ(binio::get64(run_count), 5u);
  binio::put64(run_count, 6);
  writeWithChecksum(path, bytes);

  ResultStore rs;
  EXPECT_FALSE(rs.load(path, err));
  EXPECT_NE(err.find("store_meta promises 6 runs but the segments hold 5"),
            std::string::npos)
      << err;
  std::remove(path.c_str());
}

// Run 0's blob with its workload-name length patched past the blob's end:
// the query fields cannot be read out of it.
TEST(StoreLoad, UndecodableBlobIsRefused) {
  const std::string path = tmpPath("badblob.mstore");
  const ResultStore one = oneRunStore(path);
  std::string bytes = slurp(path);
  const std::size_t at = blobLengthAt(bytes, one);
  ASSERT_NE(at, std::string::npos);
  binio::put32(reinterpret_cast<std::uint8_t*>(bytes.data()) + at + 8,
               0xFFFFFFFFu);
  writeWithChecksum(path, bytes);

  ResultStore rs;
  std::string err;
  EXPECT_FALSE(rs.load(path, err));
  EXPECT_NE(err.find("badblob.mstore': run 0's blob does not decode ("),
            std::string::npos)
      << err;
  std::remove(path.c_str());
}

// --- the RunOutput blob codec -----------------------------------------------

TEST(ResultCodec, RoundTripIsBitIdentical) {
  const sim::RunOutput& out = baseRun();
  const std::vector<std::uint8_t> blob = sweep::encodeRunOutput(out);
  sim::RunOutput back;
  std::string err;
  ASSERT_TRUE(sweep::decodeRunOutput(blob.data(), blob.size(), back, err))
      << err;
  EXPECT_EQ(sim::diffOutputs(out, back), "");
}

TEST(ResultCodec, DecodeRejectsTruncationAndTrailingBytes) {
  std::vector<std::uint8_t> blob = sweep::encodeRunOutput(baseRun());
  sim::RunOutput back;
  std::string err;
  EXPECT_FALSE(
      sweep::decodeRunOutput(blob.data(), blob.size() - 1, back, err));
  blob.push_back(0);
  EXPECT_FALSE(sweep::decodeRunOutput(blob.data(), blob.size(), back, err));
  EXPECT_NE(err.find("trailing"), std::string::npos) << err;
}

// --- the query-column read --------------------------------------------------

using Blob = std::vector<std::uint8_t>;

/// Decodes `blob` fully and as ResultStore::load does (no energy detail):
/// both must accept or both refuse, with the same message, and an accepted
/// blob must give the same query columns. Returns whether it was refused.
bool sameVerdict(const Blob& blob, const std::string& what) {
  sim::RunOutput full;
  sim::RunOutput cols;
  std::string full_err;
  std::string cols_err;
  const bool full_ok =
      sweep::decodeRunOutput(blob.data(), blob.size(), full, full_err);
  const bool cols_ok =
      sweep::decodeRunOutput(blob.data(), blob.size(), cols, cols_err,
                             sweep::Decode::kNoEnergyDetail);
  EXPECT_EQ(full_ok, cols_ok) << what;
  EXPECT_EQ(full_err, cols_err) << what;
  if (full_ok && cols_ok) {
    EXPECT_EQ(cols.benchmark, full.benchmark) << what;
    EXPECT_EQ(cols.config, full.config) << what;
    EXPECT_EQ(cols.cycles, full.cycles) << what;
    EXPECT_EQ(cols.ipc, full.ipc) << what;
    EXPECT_EQ(cols.total_pj, full.total_pj) << what;
    EXPECT_TRUE(cols.energy_detail.all().empty()) << what;
  }
  return !full_ok;
}

/// A copy of `blob` with the u32 at `at` replaced by `v`.
Blob withU32(Blob blob, std::size_t at, std::uint32_t v) {
  binio::put32(blob.data() + at, v);
  return blob;
}

// Every damage the blob layout can take — a cut at every length, a byte
// appended, each field count off by one, each string length past the end
// — gets the same verdict and message from the column read as from the
// full decode.
TEST(StoreColumns, RefusesExactlyWhatTheFullDecodeRefuses) {
  const sim::RunOutput& run = baseRun();
  ASSERT_GT(run.energy_detail.all().size(), 10u);
  const Blob blob = sweep::encodeRunOutput(run);
  EXPECT_FALSE(sameVerdict(blob, "the clean blob"));

  std::size_t refused = 0;
  for (std::size_t len = 0; len < blob.size(); ++len)
    refused += sameVerdict(Blob(blob.begin(), blob.begin() + len),
                           "cut to " + std::to_string(len) + " bytes");
  EXPECT_EQ(refused, blob.size());

  Blob longer = blob;
  longer.push_back(0);
  EXPECT_TRUE(sameVerdict(longer, "one byte appended"));

  // Offsets of the layout's u32s: the two name lengths, the three field
  // counts and every energy name length (docs/FILE_FORMATS.md).
  std::vector<std::size_t> lengths = {0, 4 + run.benchmark.size()};
  const std::size_t ifc_count = lengths[1] + 4 + run.config.size() + 9 * 8;
  const std::size_t core_count =
      ifc_count + 4 + 8 * std::size(core::kInterfaceCounterFields) + 2 * 8;
  const std::size_t energy_count =
      core_count + 4 + 8 * std::size(cpu::kCoreScaledCounterFields);
  for (std::size_t at = energy_count + 4; at < blob.size();
       at += 4 + binio::get32(blob.data() + at) + 8)
    lengths.push_back(at);
  EXPECT_EQ(lengths.size(), 2 + run.energy_detail.all().size());

  for (const std::size_t at : {ifc_count, core_count, energy_count}) {
    const std::uint32_t count = binio::get32(blob.data() + at);
    EXPECT_TRUE(sameVerdict(withU32(blob, at, count + 1),
                            "count at " + std::to_string(at) + " + 1"));
    EXPECT_TRUE(sameVerdict(withU32(blob, at, count - 1),
                            "count at " + std::to_string(at) + " - 1"));
  }
  for (const std::size_t at : lengths) {
    const auto past_end = static_cast<std::uint32_t>(blob.size() - at - 4 + 1);
    EXPECT_TRUE(sameVerdict(withU32(blob, at, past_end),
                            "length at " + std::to_string(at)));
    EXPECT_TRUE(sameVerdict(withU32(blob, at, 0xFFFFFFFFu),
                            "length at " + std::to_string(at) + " = 2^32-1"));
  }
}

// A load keeps only the query columns in memory; every stored run still
// decodes to the full RunOutput that was appended.
TEST(StoreColumns, StoredBlobDecodesToTheAppendedRunOutput) {
  const std::string path = tmpPath("columns.mstore");
  std::remove(path.c_str());
  const std::vector<sim::RunOutput> outs = {
      namedRun("gcc", "Base1ldst", 0.8), namedRun("gcc", "MALEC", 1.2),
      namedRun("mcf", "MALEC", 0.9)};
  ResultStore rs;
  StoreSegment seg;
  seg.suite = "fig4a";
  seg.fingerprint = 7;
  seg.instructions = 2000;
  seg.seed = 1;
  rs.appendSegment(seg, {{"gcc", "Base1ldst", &outs[0]},
                         {"gcc", "MALEC", &outs[1]},
                         {"mcf", "MALEC", &outs[2]}});
  std::string err;
  ASSERT_TRUE(rs.save(path, err)) << err;

  ResultStore back;
  ASSERT_TRUE(back.load(path, err)) << err;
  ASSERT_EQ(back.runs().size(), outs.size());
  for (std::size_t i = 0; i < outs.size(); ++i) {
    sim::RunOutput got;
    ASSERT_TRUE(decodeStored(back, i, got, err)) << err;
    EXPECT_EQ(sim::diffOutputs(outs[i], got), "") << "run " << i;
  }
  std::remove(path.c_str());
}

// --- StoreSink --------------------------------------------------------------

sim::SuiteInfo sinkInfo(std::uint64_t fingerprint) {
  sim::SuiteInfo info;
  info.name = "sink_suite";
  info.title = "Sink suite";
  info.instructions = 2000;
  info.seed = 1;
  info.jobs = 1;
  info.fingerprint = fingerprint;
  return info;
}

void pushRun(StoreSink& sink, const sim::RunOutput& out) {
  const sim::RunRecord rec{out.benchmark, out.config, out};
  sink.runResult(rec);
}

TEST(StoreSink, ExoticWorkloadNamesRoundTripExactly) {
  // The `trace:<path>` namespace puts arbitrary filesystem paths into
  // workload names: commas, quotes, spaces — the store must hand back the
  // exact bytes.
  const std::vector<std::string> names = {
      "trace:/tmp/my traces/a,b.mtrace",
      "trace:/tmp/\"quoted\".mtrace",
      "trace:plain",
  };
  const std::string path = tmpPath("exotic.mstore");
  std::remove(path.c_str());
  StoreSink sink(path);
  sink.beginSuite(sinkInfo(777));
  for (const std::string& n : names) pushRun(sink, namedRun(n, "MALEC"));
  sink.endSuite();

  ResultStore rs;
  std::string err;
  ASSERT_TRUE(rs.load(path, err)) << err;
  ASSERT_EQ(rs.runs().size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(rs.runs()[i].workload, names[i]);
    sim::RunOutput out;
    ASSERT_TRUE(decodeStored(rs, i, out, err)) << err;
    EXPECT_EQ(out.benchmark, names[i]);
  }
}

TEST(StoreSink, AppendsSecondSuiteAsNewSegment) {
  const std::string path = tmpPath("append.mstore");
  std::remove(path.c_str());
  {
    StoreSink sink(path);
    sink.beginSuite(sinkInfo(1));
    pushRun(sink, namedRun("gcc", "MALEC"));
    sink.endSuite();
  }
  {
    StoreSink sink(path);
    sink.beginSuite(sinkInfo(2));
    pushRun(sink, namedRun("mcf", "MALEC"));
    sink.endSuite();
  }
  ResultStore rs;
  std::string err;
  ASSERT_TRUE(rs.load(path, err)) << err;
  EXPECT_EQ(rs.segments().size(), 2u);
  EXPECT_EQ(rs.runs().size(), 2u);
}

/// Write a one-run store at `path` holding grid `fingerprint`.
void writeOneRunStore(const std::string& path, std::uint64_t fingerprint) {
  StoreSink sink(path);
  sink.beginSuite(sinkInfo(fingerprint));
  pushRun(sink, namedRun("gcc", "MALEC"));
  sink.endSuite();
}

// Both refusals land in beginSuite(), before a grid would run.
TEST(StoreSinkDeathTest, RefusesReappendingTheSameGrid) {
  const std::string path = tmpPath("dupgrid.mstore");
  std::remove(path.c_str());
  writeOneRunStore(path, 42);
  StoreSink sink(path);
  EXPECT_DEATH(sink.beginSuite(sinkInfo(42)), "already holds this exact grid");
}

TEST(StoreSinkDeathTest, RefusesAppendingToCorruptStore) {
  const std::string path = tmpPath("corruptappend.mstore");
  std::remove(path.c_str());
  writeOneRunStore(path, 42);
  flipByteAt(path, std::filesystem::file_size(path) / 2);
  StoreSink sink(path);
  EXPECT_DEATH(sink.beginSuite(sinkInfo(43)), "corrupt");
}

TEST(StoreSinkDeathTest, EndSuiteRefusesAGridAppendedSinceBeginSuite) {
  // beginSuite() passed on an empty path; another writer then landed the
  // same grid first. endSuite() must check again, not trust the early pass.
  const std::string path = tmpPath("racegrid.mstore");
  std::remove(path.c_str());
  StoreSink sink(path);
  sink.beginSuite(sinkInfo(42));
  pushRun(sink, namedRun("gcc", "MALEC"));
  writeOneRunStore(path, 42);
  EXPECT_DEATH(sink.endSuite(), "already holds this exact grid");
}

// --- query engine -----------------------------------------------------------

TEST(Query, DefaultSelectsEveryColumnInFileOrder) {
  const QueryResult r = runQuery(sampleStore(), QueryOptions{});
  EXPECT_EQ(r.columns, queryColumns());
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0][0], "fig4a");
  EXPECT_EQ(r.rows[0][1], "gcc");
  EXPECT_EQ(r.rows[0][2], "Base1ldst");
  EXPECT_EQ(r.rows[4][0], "fig4b");
}

TEST(Query, FiltersComposeAndSelectReorders) {
  QueryOptions q;
  q.select = {"ipc", "workload"};
  q.workload_contains = "gcc";
  q.config_contains = "MALEC";
  q.have_seed = true;
  q.seed = 1;
  const QueryResult r = runQuery(sampleStore(), q);
  ASSERT_EQ(r.columns.size(), 2u);
  EXPECT_EQ(r.columns[0], "ipc");
  EXPECT_TRUE(r.numeric[0]);
  EXPECT_FALSE(r.numeric[1]);
  // seed 9's fig4b row is filtered out; one row survives.
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][1], "gcc");
}

TEST(Query, SortIsStableAndDescAndLimitTruncates) {
  QueryOptions q;
  q.sort_by = "ipc";
  q.sort_desc = true;
  q.limit = 2;
  const QueryResult r = runQuery(sampleStore(), q);
  ASSERT_EQ(r.rows.size(), 2u);
  // Highest two IPC rows: gcc/MALEC (x1.2) then gcc/MALEC seed 9 (x1.1).
  EXPECT_EQ(r.rows[0][2], "MALEC");
  EXPECT_GE(r.rows[0][6], r.rows[1][6]);
}

TEST(Query, GroupGeomeanFoldsPerConfigInFirstAppearanceOrder) {
  QueryOptions q;
  q.group_geomean = true;
  q.suite_contains = "fig4a";
  const QueryResult r = runQuery(sampleStore(), q);
  ASSERT_EQ(r.columns.size(), 5u);
  EXPECT_EQ(r.columns[0], "config");
  EXPECT_EQ(r.columns[1], "runs");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0], "Base1ldst");
  EXPECT_EQ(r.rows[0][1], "2");
  // The folded IPC is the geometric mean of the two Base1ldst runs.
  const double expect =
      sim::geomean({baseRun().ipc * 0.8, baseRun().ipc * 0.5});
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", expect);
  EXPECT_EQ(r.rows[0][3], buf);
}

TEST(QueryDeathTest, UnknownColumnsAbortWithInventory) {
  QueryOptions q;
  q.select = {"bogus"};
  EXPECT_DEATH((void)runQuery(sampleStore(), q), "unknown select column");
  QueryOptions q2;
  q2.sort_by = "nope";
  EXPECT_DEATH((void)runQuery(sampleStore(), q2), "unknown sort column");
  // Sorting by a column outside the selected set is equally unknown.
  QueryOptions q3;
  q3.group_geomean = true;
  q3.sort_by = "workload";
  EXPECT_DEATH((void)runQuery(sampleStore(), q3), "unknown sort column");
}

TEST(Query, JsonEscapesExoticNamesAndTypesNumbers) {
  ResultStore rs;
  const sim::RunOutput a = namedRun("trace:/tmp/\"q\",x.mtrace", "MALEC");
  StoreSegment seg;
  seg.suite = "trace_replay";
  seg.fingerprint = 7;
  seg.seed = 1;
  seg.instructions = 2000;
  rs.appendSegment(seg, {{a.benchmark, a.config, &a}});

  const QueryResult r = runQuery(rs, QueryOptions{});
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  printQueryJson(r, f);
  std::fflush(f);
  std::rewind(f);
  std::string got;
  char buf[512];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) got.append(buf, n);
  std::fclose(f);
  EXPECT_NE(got.find("\"workload\":\"trace:/tmp/\\\"q\\\",x.mtrace\""),
            std::string::npos)
      << got;
  EXPECT_NE(got.find("\"seed\":1,"), std::string::npos) << got;
}

// --- subprocess: the real malec_bench binary --------------------------------

/// Runs malec_bench with `args`; returns its exit code (or -1 on a signal)
/// and leaves stdout in `out_path`, stderr in `out_path`.err.
int runBench(const std::string& args, const std::string& out_path) {
  const std::string cmd = std::string(MALEC_BENCH_PATH) + " " + args + " > " +
                          out_path + " 2> " + out_path + ".err";
  const int rc = std::system(cmd.c_str());
  if (WIFEXITED(rc)) return WEXITSTATUS(rc);
  return -1;
}

const char* kGrid = "--suite fig4a --filter gcc --instr 2000 --seed 1";

TEST(StoreProcess, QueryAnswersOverACliStore) {
  const std::string path = tmpPath("cli.mstore");
  std::remove(path.c_str());
  const std::string out = tmpPath("cli.txt");
  ASSERT_EQ(runBench(std::string(kGrid) + " --sink store --store " + path,
                     out),
            0)
      << slurp(out + ".err");
  const std::string qout = tmpPath("query.txt");
  ASSERT_EQ(runBench("query --store " + path +
                         " --format json --where-config MALEC",
                     qout),
            0)
      << slurp(qout + ".err");
  EXPECT_NE(slurp(qout).find("\"config\":\"MALEC\""), std::string::npos);
}

TEST(StoreProcess, SinkRefusesRewritingTheSameGridViaCli) {
  const std::string path = tmpPath("dupcli.mstore");
  std::remove(path.c_str());
  const std::string out = tmpPath("dupcli.txt");
  ASSERT_EQ(runBench(std::string(kGrid) + " --sink store --store " + path, out),
            0);
  EXPECT_NE(runBench(std::string(kGrid) + " --sink store --store " + path, out),
            0);
  EXPECT_NE(slurp(out + ".err").find("already holds this exact grid"),
            std::string::npos)
      << slurp(out + ".err");
}

}  // namespace
}  // namespace malec::store
