#include "sim/reporting.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

namespace malec::sim {
namespace {

TEST(Geomean, KnownValues) {
  EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
  EXPECT_NEAR(geomean({1.0, 10.0, 100.0}), 10.0, 1e-9);
}

TEST(Geomean, EmptyIsZero) { EXPECT_DOUBLE_EQ(geomean({}), 0.0); }

TEST(Table, RendersHeaderAndRows) {
  Table t("demo", {"a", "b"});
  t.addRow("row1", {1.5, 2.5});
  t.addRow("row2", {3.0, 4.0});
  const std::string s = t.render(1);
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("row1"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_NE(s.find("4.0"), std::string::npos);
}

TEST(TableDeathTest, AddRowRejectsColumnCountMismatch) {
  Table t("demo", {"a", "b"});
  t.addRow("ok", {1.0, 2.0});
  // One value too few and one too many must both abort — a ragged table
  // would render misaligned and corrupt every geomean computed over it.
  EXPECT_DEATH(t.addRow("short", {1.0}),
               "values size must equal the column count");
  EXPECT_DEATH(t.addRow("long", {1.0, 2.0, 3.0}),
               "values size must equal the column count");
  EXPECT_DEATH(t.addRow("empty", {}),
               "values size must equal the column count");
}

TEST(Table, GeomeanRowOverWindow) {
  Table t("demo", {"x"});
  t.addRow("r1", {1.0});
  t.addRow("r2", {4.0});
  t.addGeomeanRow("gm1");  // over r1, r2 -> 2
  t.addRow("r3", {9.0});
  t.addGeomeanRow("gm2");  // over r3 only -> 9
  const std::string csv = t.csv(2);
  EXPECT_NE(csv.find("gm1,2.00"), std::string::npos);
  EXPECT_NE(csv.find("gm2,9.00"), std::string::npos);
}

TEST(Table, OverallGeomeanIgnoresMeanRows) {
  Table t("demo", {"x"});
  t.addRow("r1", {1.0});
  t.addGeomeanRow("suite");
  t.addRow("r2", {100.0});
  t.addOverallGeomeanRow("overall");  // gm(1, 100) = 10
  const std::string csv = t.csv(1);
  EXPECT_NE(csv.find("overall,10.0"), std::string::npos);
}

TEST(Table, CsvShape) {
  Table t("demo", {"c1", "c2"});
  t.addRow("r", {1.0, 2.0});
  const std::string csv = t.csv(0);
  EXPECT_EQ(csv, "benchmark,c1,c2\nr,1,2\n");
}

TEST(TableDeath, RowWidthMismatchAborts) {
  Table t("demo", {"a", "b"});
  EXPECT_DEATH(t.addRow("r", {1.0}), "MALEC_CHECK");
}

TEST(GeomeanDeath, NonPositiveAborts) {
  EXPECT_DEATH((void)geomean({1.0, 0.0}), "positive");
}

}  // namespace
}  // namespace malec::sim
