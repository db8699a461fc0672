// .mplan sample-plan format: save/load round trips and the strict
// validation the docs promise — truncation, corruption, bad magic/version
// and invariant violations must all fail loudly, never load quietly.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "phase/sample_plan.h"

namespace malec::phase {
namespace {

std::string tmpPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
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

  // Chop one byte off the end: the size-vs-pick-count check must trip.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::vector<char> bytes(64 + 3 * 16);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  f = std::fopen(path.c_str(), "wb");
  std::fwrite(bytes.data(), 1, bytes.size() - 1, f);
  std::fclose(f);

  SamplePlan out;
  EXPECT_FALSE(loadSamplePlan(path, out, err));
  EXPECT_NE(err.find("truncated"), std::string::npos);

  // Truncation inside the header is its own message.
  f = std::fopen(path.c_str(), "wb");
  std::fwrite(bytes.data(), 1, 10, f);
  std::fclose(f);
  EXPECT_FALSE(loadSamplePlan(path, out, err));
  EXPECT_NE(err.find("too short"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SamplePlan, LoadRejectsCorruptPayload) {
  const std::string path = tmpPath("corrupt.mplan");
  std::string err;
  ASSERT_TRUE(saveSamplePlan(validPlan(), path, err)) << err;

  // Flip a byte inside the first pick entry: checksum must catch it.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  std::fseek(f, 64 + 3, SEEK_SET);
  const int orig = std::fgetc(f);
  std::fseek(f, 64 + 3, SEEK_SET);
  std::fputc(orig ^ 0xFF, f);
  std::fclose(f);

  SamplePlan out;
  EXPECT_FALSE(loadSamplePlan(path, out, err));
  EXPECT_NE(err.find("checksum mismatch"), std::string::npos);
  std::remove(path.c_str());
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
