// malec_lint contract tests, in two layers:
//
// 1. Library layer: runLint() on the fixture mini-trees under
//    tools/lint/fixtures/ — each bad_* tree seeds exactly one rule
//    family's violations, each negative tree (clean, waived) must come
//    back with zero findings.
// 2. Process layer: the exit-code contract CI depends on. malec_lint and
//    scripts/check_lint.sh are exec'd per fixture; every seeded rule
//    family must make the gate exit non-zero, and the clean/waived trees
//    must exit zero. bad_drift proves the checkpoint-matrix cross-check
//    fails even though the lint itself is clean, schema_drift proves
//    the same for the committed-schema regenerate-and-diff gate, and
//    stale_allowlist for an allowlist entry that silences nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "lint.h"

namespace {

using malec::lint::Finding;
using malec::lint::Options;
using malec::lint::Report;

std::string fixtureRoot(const std::string& name) {
  return std::string(MALEC_LINT_FIXTURES_DIR) + "/" + name;
}

Report lintFixture(const std::string& name) {
  Options opt;
  opt.root = fixtureRoot(name);
  return malec::lint::runLint(opt);
}

std::vector<std::string> rulesIn(const Report& r) {
  std::vector<std::string> rules;
  for (const Finding& f : r.findings) rules.push_back(f.rule);
  std::sort(rules.begin(), rules.end());
  rules.erase(std::unique(rules.begin(), rules.end()), rules.end());
  return rules;
}

/// Exit code of `cmd` (stdout/stderr silenced to keep ctest logs clean).
int runCommand(const std::string& cmd) {
  const int status = std::system((cmd + " >/dev/null 2>&1").c_str());
  EXPECT_NE(status, -1) << "failed to spawn: " << cmd;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int checkLintExit(const std::string& fixture) {
  return runCommand(std::string(MALEC_CHECK_LINT_SH) + " " + MALEC_LINT_BIN +
                    " " + fixtureRoot(fixture));
}

// --- library layer ----------------------------------------------------------

TEST(LintLibrary, CleanFixtureHasNoFindings) {
  const Report r = lintFixture("clean");
  EXPECT_TRUE(r.findings.empty()) << malec::lint::formatFindings(r);
  EXPECT_EQ(r.stateful_classes, std::vector<std::string>{"Widget"});
}

TEST(LintLibrary, CheckpointRuleFlagsUnserializedMember) {
  const Report r = lintFixture("bad_state");
  ASSERT_EQ(r.findings.size(), 1u) << malec::lint::formatFindings(r);
  EXPECT_EQ(r.findings[0].rule, "checkpoint-state");
  EXPECT_NE(r.findings[0].message.find("missed_"), std::string::npos);
  EXPECT_NE(r.findings[0].message.find("Widget"), std::string::npos);
}

TEST(LintLibrary, EventIdRuleFlagsStringsInPerCycleDirs) {
  const Report r = lintFixture("bad_eventid");
  EXPECT_EQ(rulesIn(r), std::vector<std::string>{"eventid"});
  EXPECT_EQ(r.findings.size(), 2u) << malec::lint::formatFindings(r);
}

TEST(LintLibrary, DeterminismRuleFlagsWallClockAndLibcRand) {
  const Report r = lintFixture("bad_determinism");
  EXPECT_EQ(rulesIn(r), std::vector<std::string>{"determinism"});
  // srand, rand, steady_clock::now.
  EXPECT_EQ(r.findings.size(), 3u) << malec::lint::formatFindings(r);
}

TEST(LintLibrary, UdcOrderRuleFlagsHashOrderIterationNearStateWriter) {
  const Report r = lintFixture("bad_udc");
  EXPECT_EQ(rulesIn(r), std::vector<std::string>{"udc-order"});
  EXPECT_EQ(r.findings.size(), 2u) << malec::lint::formatFindings(r);
}

TEST(LintLibrary, StrictParseRuleFlagsRawNumericParsers) {
  const Report r = lintFixture("bad_parse");
  EXPECT_EQ(rulesIn(r), std::vector<std::string>{"strict-parse"});
  EXPECT_EQ(r.findings.size(), 2u) << malec::lint::formatFindings(r);
}

TEST(LintLibrary, InlineAndFileScopeWaiversSilenceFindings) {
  Options opt;
  opt.root = fixtureRoot("waived");
  std::vector<std::string> errors;
  opt.allow = malec::lint::parseAllowlistFile(
      opt.root + "/tools/lint/allowlist.txt", errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(opt.allow.size(), 1u);
  EXPECT_EQ(opt.allow[0].rule, "determinism");
  const Report r = malec::lint::runLint(opt);
  EXPECT_TRUE(r.findings.empty()) << malec::lint::formatFindings(r);
}

TEST(LintLibrary, SymmetryRuleFlagsReorderedLoadState) {
  const Report r = lintFixture("bad_symmetry");
  ASSERT_EQ(r.findings.size(), 1u) << malec::lint::formatFindings(r);
  EXPECT_EQ(r.findings[0].rule, "ckpt-symmetry");
  // The message names the first diverging op pair.
  EXPECT_NE(r.findings[0].message.find("u64"), std::string::npos);
  EXPECT_NE(r.findings[0].message.find("u8"), std::string::npos);
}

TEST(LintLibrary, LayeringRuleFlagsUpStackIncludeOnly) {
  const Report r = lintFixture("bad_layering");
  ASSERT_EQ(r.findings.size(), 1u) << malec::lint::formatFindings(r);
  EXPECT_EQ(r.findings[0].rule, "layering");
  // The sim include is the violation; the ckpt include is legal.
  EXPECT_NE(r.findings[0].message.find("sim/suite.h"), std::string::npos);
}

TEST(LintLibrary, HotAllocFlagsSteadyStateAllocationNotCtor) {
  const Report r = lintFixture("bad_hotalloc");
  // Two push_back sites; the constructor one is exempt.
  ASSERT_EQ(r.findings.size(), 1u) << malec::lint::formatFindings(r);
  EXPECT_EQ(r.findings[0].rule, "hot-alloc");
}

TEST(LintLibrary, SchemaDriftTreeLintsClean) {
  // Drift between committed schemas and the saveState bodies is a
  // check_lint.sh gate concern, not a lint finding — the tree itself is
  // contract-clean.
  const Report r = lintFixture("schema_drift");
  EXPECT_TRUE(r.findings.empty()) << malec::lint::formatFindings(r);
  ASSERT_EQ(r.schemas.size(), 1u);
  const std::vector<std::string> want = {"u64 value_", "u64 extra_"};
  EXPECT_EQ(r.schemas[0].lines, want);
}

TEST(LintLibrary, SchemaExtractionRecordsOrderedOps) {
  const Report r = lintFixture("clean");
  ASSERT_EQ(r.schemas.size(), 1u);
  EXPECT_EQ(r.schemas[0].class_name, "Widget");
  EXPECT_EQ(r.schemas[0].file, "src/core/widget.h");
  const std::vector<std::string> want = {"call put(w, value_)",
                                         "call put(w, history_.size())",
                                         "call put(w, h)"};
  EXPECT_EQ(r.schemas[0].lines, want);
  const std::string text = malec::lint::formatSchema(r.schemas[0]);
  EXPECT_NE(text.find("class Widget\n"), std::string::npos);
  EXPECT_NE(text.find("source src/core/widget.h\n"), std::string::npos);
}

TEST(LintLibrary, AllowlistSuffixMatchesAtComponentBoundariesOnly) {
  // Regression: a suffix like core/foo.h must exempt src/core/foo.h but
  // NOT src/othercore/foo.h (plain ends-with matching did).
  const std::string dir = std::string(::testing::TempDir()) + "lint_suffix";
  ASSERT_EQ(runCommand("mkdir -p " + dir + "/src/core " + dir +
                       "/src/othercore"),
            0);
  for (const char* sub : {"core", "othercore"}) {
    std::ofstream f(dir + "/src/" + sub + "/foo.h");
    f << "inline int f(const char* s) { return atoi(s); }\n";
  }
  Options opt;
  opt.root = dir;
  opt.allow.push_back({"strict-parse", "core/foo.h", "fixture"});
  const Report r = malec::lint::runLint(opt);
  ASSERT_EQ(r.findings.size(), 1u) << malec::lint::formatFindings(r);
  EXPECT_EQ(r.findings[0].file, "src/othercore/foo.h");
}

TEST(LintLibrary, RuleFilterRestrictsFamilies) {
  Options opt;
  opt.root = fixtureRoot("bad_parse");
  opt.rule_filter = {"determinism"};
  EXPECT_TRUE(malec::lint::runLint(opt).findings.empty());
  opt.rule_filter = {"strict-parse"};
  EXPECT_EQ(malec::lint::runLint(opt).findings.size(), 2u);
}

TEST(LintLibrary, RestrictedDirsGetDeterminismAndStrictParseOnly) {
  // tools/ and bench/ stay reproducible (determinism, strict-parse) but
  // are exempt from the simulation-state families.
  const std::string dir = std::string(::testing::TempDir()) + "lint_tools";
  ASSERT_EQ(runCommand("mkdir -p " + dir + "/src " + dir + "/tools " + dir +
                       "/tools/x/fixtures/src"),
            0);
  {
    std::ofstream f(dir + "/tools/gen.cpp");
    f << "#include <cstdlib>\n"
         "#include <unordered_map>\n"
         "struct StateWriter {};\n"  // udc-order bait: restricted files
         "std::unordered_map<int, int> m;\n"
         "int gen() {\n"
         "  int s = 0;\n"
         "  for (const auto& kv : m) s += kv.second;\n"
         "  return s + rand();\n"
         "}\n";
  }
  {
    // Violations under a fixtures/ component must not be scanned at all.
    std::ofstream f(dir + "/tools/x/fixtures/src/seeded.cpp");
    f << "#include <cstdlib>\nint s(const char* v) { return atoi(v); }\n";
  }
  Options opt;
  opt.root = dir;
  const Report r = malec::lint::runLint(opt);
  ASSERT_EQ(r.findings.size(), 1u) << malec::lint::formatFindings(r);
  EXPECT_EQ(r.findings[0].rule, "determinism");
  EXPECT_EQ(r.findings[0].file, "tools/gen.cpp");
}

TEST(LintLibrary, MalformedWaiverIsItselfAFinding) {
  // A waiver without a reason must not silently disable a rule.
  const std::string dir = std::string(::testing::TempDir()) + "lint_waiver";
  ASSERT_EQ(runCommand("mkdir -p " + dir + "/src"), 0);
  {
    std::ofstream f(dir + "/src/bad.cpp");
    f << "#include <cstdlib>\n"
         "int f(const char* s) {\n"
         "  return atoi(s);  // lint:allow(strict-parse)\n"
         "}\n";
  }
  Options opt;
  opt.root = dir;
  const Report r = malec::lint::runLint(opt);
  const auto rules = rulesIn(r);
  EXPECT_TRUE(std::find(rules.begin(), rules.end(), "waiver-syntax") !=
              rules.end())
      << malec::lint::formatFindings(r);
  EXPECT_TRUE(std::find(rules.begin(), rules.end(), "strict-parse") !=
              rules.end())
      << "a malformed waiver must not suppress the underlying finding";
}

TEST(LintLibrary, RealTreeStillLintsClean) {
  // The same invariant the check_lint ctest enforces, via the library —
  // kept here too so `ctest -R test_lint` alone catches a dirty tree.
  Options opt;
  opt.root = MALEC_REPO_ROOT;
  std::vector<std::string> errors;
  opt.allow = malec::lint::parseAllowlistFile(
      std::string(MALEC_REPO_ROOT) + "/tools/lint/allowlist.txt", errors);
  EXPECT_TRUE(errors.empty());
  const Report r = malec::lint::runLint(opt);
  EXPECT_TRUE(r.findings.empty()) << malec::lint::formatFindings(r);
  EXPECT_FALSE(r.stateful_classes.empty());
}

// --- process layer: the exit codes CI keys off ------------------------------

TEST(LintExitCodes, MalecLintUsageErrorsExitTwo) {
  EXPECT_EQ(runCommand(std::string(MALEC_LINT_BIN)), 2);
  EXPECT_EQ(runCommand(std::string(MALEC_LINT_BIN) +
                       " --root /nonexistent-malec-root"),
            2);
  // Unknown --rule family is a usage error, not a clean pass.
  EXPECT_EQ(runCommand(std::string(MALEC_LINT_BIN) + " --root " +
                       fixtureRoot("clean") + " --rule bogus-family"),
            2);
  EXPECT_EQ(runCommand(std::string(MALEC_LINT_BIN) + " --root " +
                       fixtureRoot("clean") +
                       " --list-stateful --emit-schema /tmp/x"),
            2);
}

TEST(LintExitCodes, RuleFlagRunsASingleFamily) {
  const std::string base =
      std::string(MALEC_LINT_BIN) + " --root " + fixtureRoot("bad_parse");
  EXPECT_EQ(runCommand(base), 1);
  EXPECT_EQ(runCommand(base + " --rule strict-parse"), 1);
  EXPECT_EQ(runCommand(base + " --rule determinism"), 0);
}

TEST(LintExitCodes, CheckLintPassesCleanTrees) {
  EXPECT_EQ(checkLintExit("clean"), 0);
  EXPECT_EQ(checkLintExit("waived"), 0);
}

TEST(LintExitCodes, CheckLintFailsEverySeededRuleFamily) {
  EXPECT_EQ(checkLintExit("bad_state"), 1);
  EXPECT_EQ(checkLintExit("bad_eventid"), 1);
  EXPECT_EQ(checkLintExit("bad_determinism"), 1);
  EXPECT_EQ(checkLintExit("bad_udc"), 1);
  EXPECT_EQ(checkLintExit("bad_parse"), 1);
  EXPECT_EQ(checkLintExit("bad_symmetry"), 1);
  EXPECT_EQ(checkLintExit("bad_layering"), 1);
  EXPECT_EQ(checkLintExit("bad_hotalloc"), 1);
}

TEST(LintExitCodes, CheckLintFailsOnCheckpointMatrixDrift) {
  EXPECT_EQ(checkLintExit("bad_drift"), 1);
}

TEST(LintExitCodes, CheckLintFailsOnStaleAllowlistEntry) {
  // The stale_allowlist tree lints clean under its allowlist, but one
  // entry silences no finding; the gate must name it and fail.
  const std::string root = fixtureRoot("stale_allowlist");
  EXPECT_EQ(runCommand(std::string(MALEC_LINT_BIN) + " --root " + root +
                       " --allowlist " + root + "/tools/lint/allowlist.txt"),
            0);
  EXPECT_EQ(checkLintExit("stale_allowlist"), 1);
}

TEST(LintExitCodes, CheckLintFailsOnSchemaDrift) {
  // The schema_drift tree lints clean — only the committed golden is
  // stale. The regenerate-and-diff gate must still fail the build.
  EXPECT_EQ(checkLintExit("schema_drift"), 1);
}

}  // namespace
