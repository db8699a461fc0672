#include "sim/registry.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/differential.h"
#include "sim/experiment.h"
#include "sim/presets.h"
#include "trace/workloads.h"

namespace malec::sim {
namespace {

TEST(Registry, PreservesRegistrationOrder) {
  Registry<int> r("thing");
  r.add("b", 2);
  r.add("a", 1);
  r.add("c", 3);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r.names(), (std::vector<std::string>{"b", "a", "c"}));
  EXPECT_EQ(r.get("a"), 1);
  EXPECT_EQ(r.get("c"), 3);
}

TEST(Registry, TryGetUnknownReturnsNull) {
  Registry<int> r("thing");
  r.add("a", 1);
  EXPECT_NE(r.tryGet("a"), nullptr);
  EXPECT_EQ(r.tryGet("missing"), nullptr);
  EXPECT_TRUE(r.has("a"));
  EXPECT_FALSE(r.has("missing"));
}

TEST(RegistryDeathTest, UnknownNameMessageNamesKindAndInventory) {
  Registry<int> r("gadget");
  r.add("alpha", 1);
  r.add("beta", 2);
  // The message must identify the registry and enumerate what IS known.
  EXPECT_DEATH((void)r.get("gama"),
               "unknown gadget 'gama' — known gadgets: alpha beta");
}

TEST(RegistryDeathTest, DuplicateAddAborts) {
  Registry<int> r("gadget");
  r.add("alpha", 1);
  EXPECT_DEATH(r.add("alpha", 2), "duplicate gadget 'alpha'");
}

TEST(WorkloadRegistry, MirrorsAllWorkloadsInPlottingOrder) {
  const auto& reg = workloadRegistry();
  const auto& all = trace::allWorkloads();
  ASSERT_EQ(reg.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i)
    EXPECT_EQ(reg.names()[i], all[i].name) << i;
  EXPECT_EQ(reg.get("gcc").name, "gcc");
  EXPECT_EQ(reg.get("gcc").suite, "SPEC-INT");
}

TEST(WorkloadRegistryDeathTest, UnknownWorkloadMessage) {
  EXPECT_DEATH((void)workloadRegistry().get("gc_typo"),
               "unknown workload 'gc_typo'");
}

TEST(PresetRegistry, EveryPresetProducesItsOwnName) {
  const auto& reg = presetRegistry();
  EXPECT_GE(reg.size(), 12u);
  for (const auto& name : reg.names()) {
    const core::InterfaceConfig cfg = reg.get(name)();
    EXPECT_EQ(cfg.name, name);
  }
  // The Table I trio plus the headline ablations must be reachable.
  for (const char* name : {"Base1ldst", "Base2ld1st", "MALEC", "MALEC_WDU16",
                           "MALEC_noWayDet"})
    EXPECT_TRUE(reg.has(name)) << name;
}

TEST(PresetRegistry, EveryPresetChangesTheRun) {
  // A preset that prints another preset's bytes is a knob no run turns on.
  // mcf tells every pair apart at this budget; on gcc and djpeg at 20k,
  // MALEC_noFeedback still prints MALEC's bytes.
  const auto& reg = presetRegistry();
  std::vector<std::pair<std::string, RunOutput>> runs;
  for (const auto& name : reg.names()) {
    RunConfig rc;
    rc.workload = trace::workloadByName("mcf");
    rc.interface_cfg = reg.get(name)();
    rc.system = defaultSystem();
    rc.instructions = 20'000;
    RunOutput out = runOne(rc);
    out.config.clear();
    runs.emplace_back(name, std::move(out));
  }
  for (std::size_t i = 0; i < runs.size(); ++i)
    for (std::size_t j = i + 1; j < runs.size(); ++j)
      EXPECT_NE(diffOutputs(runs[i].second, runs[j].second), "")
          << runs[j].first << " runs like " << runs[i].first;
}

}  // namespace
}  // namespace malec::sim
