// The explorer's determinism contract (docs/ARCHITECTURE.md, "Result
// store & exploration"): the search is a pure function of (suite grid,
// seed, budget, batch, rounds), so repeated runs produce byte-identical
// stores and frontier reports, and explore → crash → --resume in a FRESH
// process lands on the byte-identical frontier. Plus the strict refusal
// matrix: unknown objectives, --resume without a store, an existing store
// without --resume, a foreign store under --resume, and an explicit
// --seed 0 (refused by the suite runner too).
//
// Subprocess scenarios exec the real malec_bench binary (MALEC_BENCH_PATH,
// wired by CMake) on a tiny search: fig4a --filter gcc --instr 2000 with
// --rounds 2 --batch 3 is at most 6 candidate evaluations per run.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "store/result_store.h"

namespace malec::explore {
namespace {

std::string tmpPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

int runBench(const std::string& env_prefix, const std::string& args,
             const std::string& out_path) {
  const std::string cmd = env_prefix + std::string(MALEC_BENCH_PATH) + " " +
                          args + " > " + out_path + " 2> " + out_path +
                          ".err";
  const int rc = std::system(cmd.c_str());
  if (WIFEXITED(rc)) return WEXITSTATUS(rc);
  return -1;
}

const char* kSearch =
    "explore --suite fig4a --filter gcc --instr 2000 --seed 1 "
    "--rounds 2 --batch 3 --jobs 2";

/// The frontier report embeds the store path (the one run-to-run
/// difference by construction); fold it to a placeholder so reports from
/// different temp stores compare byte-for-byte.
std::string normalized(std::string report, const std::string& store_path) {
  std::size_t at;
  while ((at = report.find(store_path)) != std::string::npos)
    report.replace(at, store_path.size(), "STORE");
  return report;
}

/// The uninterrupted reference: store bytes + frontier report, computed
/// once and compared against by every determinism scenario.
struct Reference {
  std::string store_bytes;
  std::string report;
};

const Reference& reference() {
  static const Reference ref = [] {
    const std::string store = tmpPath("ref_explore.mstore");
    std::remove(store.c_str());
    const std::string out = tmpPath("ref_explore.txt");
    EXPECT_EQ(runBench("", std::string(kSearch) + " --store " + store, out),
              0)
        << slurp(out + ".err");
    return Reference{slurp(store), normalized(slurp(out), store)};
  }();
  return ref;
}

TEST(ExploreProcess, RepeatedSearchIsByteIdentical) {
  const std::string store = tmpPath("again.mstore");
  std::remove(store.c_str());
  const std::string out = tmpPath("again.txt");
  ASSERT_EQ(runBench("", std::string(kSearch) + " --store " + store, out), 0)
      << slurp(out + ".err");
  EXPECT_EQ(slurp(store), reference().store_bytes);
  EXPECT_EQ(normalized(slurp(out), store), reference().report);
  // The frontier report names the store and the query entry point.
  EXPECT_NE(slurp(out).find("Pareto frontier"), std::string::npos);
  EXPECT_NE(slurp(out).find("malec_bench query --store"), std::string::npos);

  // Every evaluation is queryable: the store holds both rounds.
  store::ResultStore rs;
  std::string err;
  ASSERT_TRUE(rs.load(store, err)) << err;
  EXPECT_EQ(rs.segments().size(), 2u);
  EXPECT_EQ(rs.segments()[0].suite, "explore:fig4a:round0");
  EXPECT_EQ(rs.segments()[1].suite, "explore:fig4a:round1");
}

TEST(ExploreProcess, CrashAfterRoundThenResumeLandsOnIdenticalFrontier) {
  const std::string store = tmpPath("crash.mstore");
  std::remove(store.c_str());
  const std::string out = tmpPath("crash.txt");
  // Round 0 persists, then the injected crash kills the process (exit 17).
  ASSERT_EQ(runBench("MALEC_FAULT_SPEC=explore-crash:round=1 ",
                     std::string(kSearch) + " --store " + store, out),
            17);
  {
    store::ResultStore rs;
    std::string err;
    ASSERT_TRUE(rs.load(store, err)) << err;
    EXPECT_EQ(rs.segments().size(), 1u);
  }

  // Resume in a fresh process: round 0 is replayed from the store, round 1
  // is simulated, and both the store bytes and the frontier report are
  // identical to the never-crashed run.
  ASSERT_EQ(runBench("", std::string(kSearch) + " --store " + store +
                             " --resume",
                     out),
            0)
      << slurp(out + ".err");
  EXPECT_EQ(slurp(store), reference().store_bytes);
  EXPECT_EQ(normalized(slurp(out), store), reference().report);
}

TEST(ExploreProcess, ResumeOfCompletedSearchRerunsNothing) {
  const std::string store = tmpPath("done.mstore");
  std::remove(store.c_str());
  const std::string out = tmpPath("done.txt");
  ASSERT_EQ(runBench("", std::string(kSearch) + " --store " + store, out), 0);
  // A resume over the finished store replays both rounds from disk — if it
  // simulated anything the injected crash after one fresh round would kill
  // it.
  ASSERT_EQ(runBench("MALEC_FAULT_SPEC=explore-crash:round=1 ",
                     std::string(kSearch) + " --store " + store + " --resume",
                     out),
            0)
      << slurp(out + ".err");
  EXPECT_EQ(slurp(store), reference().store_bytes);
  EXPECT_EQ(normalized(slurp(out), store), reference().report);
}

TEST(ExploreProcess, RefusalMatrix) {
  const std::string out = tmpPath("refuse.txt");

  // Unknown objective.
  EXPECT_NE(runBench("",
                     "explore --suite fig4a --filter gcc --instr 2000 "
                     "--objective bogus --store " +
                         tmpPath("r1.mstore"),
                     out),
            0);
  EXPECT_NE(slurp(out + ".err").find("unknown explore objective"),
            std::string::npos)
      << slurp(out + ".err");

  // --resume without a store on disk.
  EXPECT_NE(runBench("", std::string(kSearch) + " --store " +
                             tmpPath("absent.mstore") + " --resume",
                     out),
            0);

  // An existing store without --resume.
  const std::string existing = tmpPath("exists.mstore");
  { std::ofstream(existing) << "placeholder"; }
  EXPECT_NE(runBench("", std::string(kSearch) + " --store " + existing, out),
            0);
  EXPECT_NE(slurp(out + ".err").find("already exists"), std::string::npos)
      << slurp(out + ".err");

  // Missing required flags.
  EXPECT_NE(runBench("", "explore --suite fig4a", out), 0);
  EXPECT_NE(runBench("", "explore --store x.mstore", out), 0);

  // Out-of-range knobs (strict caps).
  EXPECT_NE(runBench("", std::string(kSearch) + " --store " +
                             tmpPath("r2.mstore") + " --rounds 65",
                     out),
            0);
  EXPECT_NE(runBench("", std::string(kSearch) + " --store " +
                             tmpPath("r3.mstore") + " --batch 0",
                     out),
            0);
}

TEST(ExploreProcess, SeedZeroIsRefused) {
  // The suite runner and explore resolve seed 0 to the spec's seed, so an
  // explicit --seed 0 must be refused, not silently run as another seed.
  const std::string store = tmpPath("seed0.mstore");
  std::remove(store.c_str());
  const std::string out = tmpPath("seed0.txt");
  for (const std::string& args :
       {std::string("--suite fig4a --filter gcc --instr 2000 --seed 0"),
        "explore --suite fig4a --filter gcc --instr 2000 --seed 0 --store " +
            store}) {
    EXPECT_NE(runBench("", args, out), 0) << args;
    EXPECT_NE(slurp(out + ".err").find("0 would select the spec's seed"),
              std::string::npos)
        << args << ": " << slurp(out + ".err");
  }
  EXPECT_FALSE(std::filesystem::exists(store));
}

TEST(ExploreProcess, ResumeRefusesForeignStore) {
  // A store written by an ordinary sweep sink is not an exploration
  // prefix: its segment fingerprint cannot match round 0's.
  const std::string store = tmpPath("foreignx.mstore");
  std::remove(store.c_str());
  const std::string out = tmpPath("foreignx.txt");
  ASSERT_EQ(runBench("",
                     "--suite fig4a --filter gcc --instr 2000 --seed 1 "
                     "--sink store --store " +
                         store,
                     out),
            0);
  EXPECT_NE(runBench("", std::string(kSearch) + " --store " + store +
                             " --resume",
                     out),
            0);
  EXPECT_NE(slurp(out + ".err").find("foreign to this exploration"),
            std::string::npos)
      << slurp(out + ".err");

  // A completed exploration resumed with a different seed is equally
  // foreign — the round fingerprints disagree.
  const std::string store2 = tmpPath("foreignseed.mstore");
  std::remove(store2.c_str());
  ASSERT_EQ(runBench("", std::string(kSearch) + " --store " + store2, out),
            0);
  EXPECT_NE(runBench("",
                     "explore --suite fig4a --filter gcc --instr 2000 "
                     "--seed 2 --rounds 2 --batch 3 --jobs 2 --store " +
                         store2 + " --resume",
                     out),
            0);
  EXPECT_NE(slurp(out + ".err").find("foreign to this exploration"),
            std::string::npos)
      << slurp(out + ".err");
}

}  // namespace
}  // namespace malec::explore
