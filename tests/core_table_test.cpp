// Unit tests for the table renderer the benches print through.
#include <gtest/gtest.h>

#include <string>

#include "core/table.hpp"

namespace lowsense {
namespace {

TEST(Table, RendersHeadersAndRows) {
  Table t({"n", "throughput"});
  t.add_row({"100", "0.31"});
  t.add_row({"1000", "0.29"});
  const std::string out = t.render();
  EXPECT_NE(out.find("n"), std::string::npos);
  EXPECT_NE(out.find("throughput"), std::string::npos);
  EXPECT_NE(out.find("0.31"), std::string::npos);
  EXPECT_NE(out.find("1000"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, NumWithZeroPrecisionPrintsWholeNumber) {
  // Precision <= 0 is fixed-point without decimals, not one significant
  // digit ("2e+04").
  EXPECT_EQ(Table::num(23456.0, 0), "23456");
  EXPECT_EQ(Table::num(4321.0, -1), "4321");
  EXPECT_EQ(Table::num(2.5e7, 0), "25000000");
  EXPECT_EQ(Table::num(0.0, 0), "0");
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"1"});
  const std::string out = t.render();
  EXPECT_NE(out.find("1"), std::string::npos);
}

TEST(Table, DropsExtraCells) {
  Table t({"a"});
  t.add_row({"1", "overflow"});
  EXPECT_EQ(t.render().find("overflow"), std::string::npos);
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t({"name", "note"});
  t.add_row({"x,y", "say \"hi\""});
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, CsvHasHeaderLine) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.csv().rfind("a,b\n", 0), 0u);
}

TEST(TableNum, FormatsMagnitudes) {
  EXPECT_EQ(Table::num(0.0), "0");
  EXPECT_NE(Table::num(0.3061).find("0.306"), std::string::npos);
  // Very large and very small switch to scientific.
  EXPECT_NE(Table::num(1.0e9).find("e"), std::string::npos);
  EXPECT_NE(Table::num(1.0e-6).find("e"), std::string::npos);
}

}  // namespace
}  // namespace lowsense
