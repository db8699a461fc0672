#include "common/stats.h"

#include <gtest/gtest.h>

namespace malec {
namespace {

TEST(StatSet, SetGet) {
  StatSet s;
  EXPECT_FALSE(s.has("x"));
  EXPECT_DOUBLE_EQ(s.get("x"), 0.0);
  s.set("x", 2.5);
  s.set("x", 4.0);
  EXPECT_TRUE(s.has("x"));
  EXPECT_DOUBLE_EQ(s.get("x"), 4.0);
}

TEST(StatSet, TableRendersAllEntries) {
  StatSet s;
  s.set("alpha", 1);
  s.set("beta", 2);
  const std::string t = s.toTable();
  EXPECT_NE(t.find("alpha"), std::string::npos);
  EXPECT_NE(t.find("beta"), std::string::npos);
}

}  // namespace
}  // namespace malec
