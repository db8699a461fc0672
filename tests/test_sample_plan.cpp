// .mplan sample-plan format: save/load round trips and the strict
// validation the docs promise — truncation, corruption, bad magic/version,
// misshapen containers and invariant violations must all fail loudly as a
// value, never load quietly and never abort.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "ckpt/state_io.h"
#include "phase/sample_plan.h"
#include "sim/experiment.h"
#include "sim/presets.h"
#include "sim/registry.h"
#include "trace/trace_io.h"
#include "trace/workloads.h"

namespace malec::phase {
namespace {

std::string tmpPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<char>& bytes,
          std::size_t n) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  std::fwrite(bytes.data(), 1, n, f);
  std::fclose(f);
}

SamplePlan validPlan() {
  SamplePlan p;
  p.interval_size = 1'000;
  p.warmup_instructions = 200;
  p.trace_records = 10'000;
  p.trace_checksum = 0xDEADBEEF12345678ull;
  p.picks = {{1, 4'000}, {4, 3'500}, {9, 2'500}};
  return p;
}

TEST(SamplePlan, SaveLoadRoundTrip) {
  const std::string path = tmpPath("roundtrip.mplan");
  const SamplePlan plan = validPlan();
  std::string err;
  ASSERT_TRUE(saveSamplePlan(plan, path, err)) << err;

  SamplePlan back;
  ASSERT_TRUE(loadSamplePlan(path, back, err)) << err;
  EXPECT_EQ(back.interval_size, plan.interval_size);
  EXPECT_EQ(back.warmup_instructions, plan.warmup_instructions);
  EXPECT_EQ(back.trace_records, plan.trace_records);
  EXPECT_EQ(back.trace_checksum, plan.trace_checksum);
  ASSERT_EQ(back.picks.size(), plan.picks.size());
  for (std::size_t i = 0; i < plan.picks.size(); ++i) {
    EXPECT_EQ(back.picks[i].interval_index, plan.picks[i].interval_index);
    EXPECT_EQ(back.picks[i].weight_instructions,
              plan.picks[i].weight_instructions);
  }
  std::remove(path.c_str());
}

TEST(SamplePlan, DerivedQuantities) {
  const SamplePlan plan = validPlan();
  EXPECT_EQ(plan.totalIntervals(), 10u);
  EXPECT_DOUBLE_EQ(plan.weight(0), 0.4);
  EXPECT_DOUBLE_EQ(plan.weight(2), 0.25);
  // Picks 1, 4, 9 with 200-instr warmups, none adjacent: 3 x (200 + 1000).
  EXPECT_EQ(plan.simulatedInstructions(), 3'600u);
  const std::vector<PlanSegment> segs = plan.segments();
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[1].warm_start, 3'800u);
  EXPECT_EQ(segs[1].start, 4'000u);
  EXPECT_EQ(segs[1].end, 5'000u);
  // Adjacent picks lose the overlapped part of their warmup.
  SamplePlan adj = plan;
  adj.picks = {{0, 3'000}, {1, 7'000}};  // pick 0 starts the trace
  EXPECT_EQ(adj.simulatedInstructions(), 2'000u);
  const std::vector<PlanSegment> adj_segs = adj.segments();
  ASSERT_EQ(adj_segs.size(), 2u);
  EXPECT_EQ(adj_segs[0].warm_start, 0u);  // clamped at the trace start
  EXPECT_EQ(adj_segs[1].warm_start, 1'000u);  // ...and at pick 0's end
  EXPECT_EQ(adj_segs[1].start, 1'000u);
}

TEST(SamplePlan, SidecarPathSwapsExtension) {
  EXPECT_EQ(planSidecarPath("dir/gcc.mtrace"), "dir/gcc.mplan");
  EXPECT_EQ(planSidecarPath("gcc.mtrace"), "gcc.mplan");
}

TEST(SamplePlan, RefusesToSaveInvalidPlans) {
  const std::string path = tmpPath("invalid.mplan");
  std::string err;
  SamplePlan p = validPlan();
  p.interval_size = 0;
  EXPECT_FALSE(saveSamplePlan(p, path, err));
  EXPECT_NE(err.find("interval size"), std::string::npos);

  p = validPlan();
  p.picks.clear();
  EXPECT_FALSE(saveSamplePlan(p, path, err));
  EXPECT_NE(err.find("no intervals"), std::string::npos);

  p = validPlan();
  p.picks[1].weight_instructions -= 1;  // sum undershoots the record count
  EXPECT_FALSE(saveSamplePlan(p, path, err));
  EXPECT_NE(err.find("sum"), std::string::npos);

  p = validPlan();
  p.picks[1].weight_instructions += 1;  // overshoot trips the bound check
  EXPECT_FALSE(saveSamplePlan(p, path, err));
  EXPECT_NE(err.find("exceed"), std::string::npos);

  p = validPlan();
  // Weights engineered to wrap mod 2^64 back to exactly trace_records — a
  // naive u64 sum would accept this corrupt plan.
  p.picks[0].weight_instructions = 1ull << 63;
  p.picks[1].weight_instructions = (1ull << 63) + p.trace_records - 2'500;
  EXPECT_FALSE(saveSamplePlan(p, path, err));
  EXPECT_NE(err.find("exceed"), std::string::npos);

  p = validPlan();
  std::swap(p.picks[0], p.picks[1]);  // unsorted
  EXPECT_FALSE(saveSamplePlan(p, path, err));
  EXPECT_NE(err.find("sorted"), std::string::npos);

  p = validPlan();
  p.picks[2].interval_index = 10;  // one past the last interval
  EXPECT_FALSE(saveSamplePlan(p, path, err));
  EXPECT_NE(err.find("interval"), std::string::npos);
}

TEST(SamplePlan, LoadRejectsMissingAndForeignFiles) {
  SamplePlan out;
  std::string err;
  EXPECT_FALSE(loadSamplePlan("/nonexistent/x.mplan", out, err));
  EXPECT_NE(err.find("cannot open"), std::string::npos);

  const std::string path = tmpPath("foreign.mplan");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const char junk[64] = "this is not a sample plan at all, not even close";
  std::fwrite(junk, 1, sizeof junk, f);
  std::fclose(f);
  EXPECT_FALSE(loadSamplePlan(path, out, err));
  EXPECT_NE(err.find("bad magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SamplePlan, LoadRejectsTruncation) {
  const std::string path = tmpPath("trunc.mplan");
  std::string err;
  ASSERT_TRUE(saveSamplePlan(validPlan(), path, err)) << err;
  const std::vector<char> bytes = slurp(path);

  // Chop one byte off the end: the container's size check must trip.
  spit(path, bytes, bytes.size() - 1);
  SamplePlan out;
  EXPECT_FALSE(loadSamplePlan(path, out, err));
  EXPECT_NE(err.find("truncated"), std::string::npos) << err;

  // Truncation inside the header is its own message.
  spit(path, bytes, 10);
  EXPECT_FALSE(loadSamplePlan(path, out, err));
  EXPECT_NE(err.find("too short"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(SamplePlan, LoadRejectsCorruptPayload) {
  const std::string path = tmpPath("corrupt.mplan");
  std::string err;
  ASSERT_TRUE(saveSamplePlan(validPlan(), path, err)) << err;

  // Flip a byte inside the first of the three picks, the file's last 48
  // bytes: the checksum must catch it.
  std::vector<char> bytes = slurp(path);
  const std::size_t at = bytes.size() - 3 * 16 + 3;
  bytes[at] = static_cast<char>(bytes[at] ^ 0xFF);
  spit(path, bytes, bytes.size());

  SamplePlan out;
  EXPECT_FALSE(loadSamplePlan(path, out, err));
  EXPECT_NE(err.find("checksum mismatch"), std::string::npos) << err;
  std::remove(path.c_str());
}

/// A `.mplan` container whose checksum holds but whose body may not: its
/// one section is named `section`, its pick count reads `count` and `tail`
/// zero bytes follow its one pick.
struct Crafted {
  const char* name;
  const char* section;
  std::uint64_t count;
  std::size_t tail;
  const char* expect;  ///< in loadSamplePlan's message; "" = loads
};

const Crafted kCrafted[] = {
    {"well_formed", "plan", 1, 0, ""},
    {"no_plan_section", "picks", 1, 0, "no 'plan' section"},
    {"count_past_end", "plan", 2, 0, "too short for the plan fields and 2"},
    {"huge_count", "plan", 1ull << 60, 0, "too short"},
    {"bytes_after_picks", "plan", 1, 3, "3 bytes follow the last pick"},
};

/// Write `c` to `path` as a one-pick plan that covers a trace of `records`
/// records with the given checksum in one interval.
void writeCrafted(const Crafted& c, const std::string& path,
                  std::uint64_t records, std::uint64_t trace_checksum) {
  ckpt::StateWriter w(kPlanMagic, kPlanVersion);
  w.beginSection(c.section);
  w.u64(records);  // interval size
  w.u64(0);        // warmup
  w.u64(records);
  w.u64(trace_checksum);
  w.u64(c.count);
  w.u64(0);        // the pick: interval 0...
  w.u64(records);  // ...weighted by every record
  for (std::size_t i = 0; i < c.tail; ++i) w.u8(0);
  w.endSection();
  std::string err;
  ASSERT_TRUE(w.writeTo(path, err)) << err;
}

TEST(SamplePlan, MisshapenContainersAreRefusedAsValues) {
  for (const Crafted& c : kCrafted) {
    SCOPED_TRACE(c.name);
    const std::string path = tmpPath("crafted.mplan");
    writeCrafted(c, path, 1'000, 0x1234);
    SamplePlan out;
    std::string err;
    const bool loaded = loadSamplePlan(path, out, err);
    EXPECT_EQ(loaded, c.expect[0] == '\0') << err;
    if (!loaded) {
      EXPECT_NE(err.find(c.expect), std::string::npos) << err;
      EXPECT_NE(err.find(path), std::string::npos) << err;
    }
    std::remove(path.c_str());
  }
}

// The MALEC_TRACE_DIR scan asks the same loader, so a misshapen sidecar
// skips the capture's sampled variant; it never aborts the scan.
TEST(SamplePlan, TraceDirScanSkipsMisshapenPlans) {
  namespace fs = std::filesystem;
  const fs::path dir = tmpPath("crafted_scan");
  fs::remove_all(dir);
  fs::create_directories(dir);
  sim::RunConfig rc;
  rc.workload = trace::workloadByName("gcc");
  rc.interface_cfg = sim::presetMalec();
  rc.system = sim::defaultSystem();
  rc.instructions = 1'000;
  const std::string first = (dir / "first.mtrace").string();
  sim::captureTrace(rc, first);
  const trace::TraceReader rd(first);
  ASSERT_TRUE(rd.ok()) << rd.error();
  for (const Crafted& c : kCrafted) {
    const std::string stem = (dir / (std::string("cr_") + c.name)).string();
    fs::copy_file(first, stem + ".mtrace");
    writeCrafted(c, stem + ".mplan", rd.total(), rd.expectedChecksum());
  }
  fs::remove(first);

  sim::registerTraceWorkloadsFrom(dir.string());
  const auto& reg = sim::workloadRegistry();
  for (const Crafted& c : kCrafted) {
    SCOPED_TRACE(c.name);
    const std::string name = std::string("trace:cr_") + c.name;
    EXPECT_NE(reg.tryGet(name), nullptr);
    EXPECT_EQ(reg.tryGet(name + ":sampled") != nullptr, c.expect[0] == '\0');
  }
  fs::remove_all(dir);
}

TEST(SamplePlan, LoadRejectsUnsupportedVersion) {
  const std::string path = tmpPath("version.mplan");
  std::string err;
  ASSERT_TRUE(saveSamplePlan(validPlan(), path, err)) << err;
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  std::fseek(f, 4, SEEK_SET);
  std::fputc(9, f);  // version 9
  std::fclose(f);
  SamplePlan out;
  EXPECT_FALSE(loadSamplePlan(path, out, err));
  EXPECT_NE(err.find("unsupported sample-plan version"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace malec::phase
