// Unit tests for src/common: checks, matrices, stopwatch/breakdown, table,
// CSV and CLI parsing.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/cli.h"
#include "common/csv.h"
#include "common/matrix.h"
#include "common/stopwatch.h"
#include "common/table.h"

namespace fastpso {
namespace {

// ---- check ------------------------------------------------------------

TEST(Check, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(FASTPSO_CHECK(1 + 1 == 2));
}

TEST(Check, FailingCheckThrowsCheckError) {
  EXPECT_THROW(FASTPSO_CHECK(false), CheckError);
}

TEST(Check, MessageIsIncluded) {
  try {
    FASTPSO_CHECK_MSG(false, "the message");
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("the message"), std::string::npos);
  }
}

TEST(Check, ExpressionTextIsIncluded) {
  try {
    FASTPSO_CHECK(2 < 1);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("2 < 1"), std::string::npos);
  }
}

// ---- matrix -----------------------------------------------------------

TEST(HostMatrix, ShapeAndFill) {
  HostMatrix<float> m(3, 4, 1.5f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_FLOAT_EQ(m(2, 3), 1.5f);
}

TEST(HostMatrix, RowMajorLayout) {
  HostMatrix<int> m(2, 3);
  int value = 0;
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      m(r, c) = value++;
    }
  }
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(m[i], static_cast<int>(i));
  }
}

TEST(HostMatrix, RowSpan) {
  HostMatrix<int> m(2, 3);
  m(1, 0) = 7;
  m(1, 2) = 9;
  auto row = m.row(1);
  EXPECT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], 7);
  EXPECT_EQ(row[2], 9);
}

TEST(HostMatrix, ViewsAliasStorage) {
  HostMatrix<double> m(2, 2);
  auto view = m.view();
  view(0, 1) = 3.25;
  EXPECT_DOUBLE_EQ(m(0, 1), 3.25);
  ConstMatrixView<double> cview = m.view();
  EXPECT_DOUBLE_EQ(cview(0, 1), 3.25);
}

TEST(HostMatrix, ReshapePreservesCount) {
  HostMatrix<int> m(4, 3);
  m.reshape(6, 2);
  EXPECT_EQ(m.rows(), 6u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_THROW(m.reshape(5, 2), CheckError);
}

TEST(HostMatrix, FillOverwrites) {
  HostMatrix<int> m(2, 2, 1);
  m.fill(9);
  EXPECT_EQ(m(0, 0), 9);
  EXPECT_EQ(m(1, 1), 9);
}

TEST(MatrixView, ConversionFromMutableView) {
  HostMatrix<float> m(1, 2);
  m(0, 0) = 1.0f;
  MatrixView<float> mv = m.view();
  ConstMatrixView<float> cv = mv;  // implicit
  EXPECT_FLOAT_EQ(cv(0, 0), 1.0f);
}

// ---- stopwatch / breakdown ---------------------------------------------

TEST(Stopwatch, ElapsedIsNonNegativeAndMonotone) {
  Stopwatch watch;
  const double t1 = watch.elapsed_s();
  const double t2 = watch.elapsed_s();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
}

TEST(TimeBreakdown, AccumulatesPerKey) {
  TimeBreakdown breakdown;
  breakdown.add("a", 1.0);
  breakdown.add("a", 2.0);
  breakdown.add("b", 0.5);
  EXPECT_DOUBLE_EQ(breakdown.get("a"), 3.0);
  EXPECT_DOUBLE_EQ(breakdown.get("b"), 0.5);
  EXPECT_DOUBLE_EQ(breakdown.get("missing"), 0.0);
  EXPECT_DOUBLE_EQ(breakdown.total(), 3.5);
}

TEST(TimeBreakdown, MergeAddsBuckets) {
  TimeBreakdown a;
  a.add("x", 1.0);
  TimeBreakdown b;
  b.add("x", 2.0);
  b.add("y", 3.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.get("x"), 3.0);
  EXPECT_DOUBLE_EQ(a.get("y"), 3.0);
}

TEST(TimeBreakdown, ExportsInNameOrder) {
  // "a" sorts first by name but is interned after the fixed ids of "init"
  // and "swarm", and it is added last. In id or insertion order the sum is
  // 1; in name order 1 + 1e16 rounds back to 1e16 and the sum is 0.
  TimeBreakdown breakdown;
  breakdown.add("init", 1e16);
  breakdown.add("swarm", -1e16);
  breakdown.add("a", 1.0);
  std::vector<std::string> keys;
  double name_order_sum = 0.0;
  for (const auto& [key, value] : breakdown.buckets()) {
    keys.push_back(key);
    name_order_sum += value;
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "init", "swarm"}));
  ASSERT_NE(name_order_sum, (1e16 + -1e16) + 1.0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(breakdown.total()),
            std::bit_cast<std::uint64_t>(name_order_sum));
}

TEST(TimeBreakdown, GetDoesNotCreateKeys) {
  TimeBreakdown breakdown;
  breakdown.add("present", 2.0);
  EXPECT_EQ(breakdown.get("never-added"), 0.0);
  EXPECT_EQ(breakdown.get("eval"), 0.0);
  EXPECT_EQ(breakdown.buckets(),
            (std::map<std::string, double>{{"present", 2.0}}));
}

TEST(TimeBreakdown, SlotSurvivesMoves) {
  TimeBreakdown source;
  double* slot = source.slot("moved");
  *slot += 2.0;
  TimeBreakdown constructed(std::move(source));
  *slot += 3.0;
  EXPECT_EQ(constructed.get("moved"), 5.0);
  TimeBreakdown assigned;
  assigned = std::move(constructed);
  *slot += 4.0;
  EXPECT_EQ(assigned.get("moved"), 9.0);
}

TEST(TimeBreakdown, CopiesOwnTheirStorage) {
  TimeBreakdown original;
  original.add("x", 1.0);
  TimeBreakdown constructed(original);
  TimeBreakdown assigned;
  assigned = original;
  *original.slot("x") += 2.0;
  constructed.add("x", 4.0);
  assigned.add("x", 8.0);
  EXPECT_EQ(original.get("x"), 3.0);
  EXPECT_EQ(constructed.get("x"), 5.0);
  EXPECT_EQ(assigned.get("x"), 9.0);
}

TEST(TimeBreakdown, ScopedTimerAddsToBucket) {
  TimeBreakdown breakdown;
  {
    ScopedTimer timer(breakdown, "scope");
  }
  EXPECT_GE(breakdown.get("scope"), 0.0);
  EXPECT_EQ(breakdown.buckets().size(), 1u);
}

// ---- table ---------------------------------------------------------------

TEST(TextTable, RendersHeaderAndRows) {
  TextTable table("title");
  table.set_header({"col1", "longer_column"});
  table.add_row({"a", "b"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find("col1"), std::string::npos);
  EXPECT_NE(out.find("longer_column"), std::string::npos);
}

TEST(TextTable, RowArityMismatchThrows) {
  TextTable table("t");
  table.set_header({"a", "b"});
  EXPECT_THROW(table.add_row({"only one"}), CheckError);
}

TEST(TextTable, Formatters) {
  EXPECT_EQ(fmt_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_speedup(2.0), "2.00x");
  EXPECT_EQ(fmt_sci(12345.0, 2).find("1.23e"), 0u);
}

// ---- csv -------------------------------------------------------------------

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, ToStringLayout) {
  CsvWriter csv({"x", "y"});
  csv.add_row({"1", "2"});
  EXPECT_EQ(csv.to_string(), "x,y\n1,2\n");
}

TEST(Csv, RowArityChecked) {
  CsvWriter csv({"x", "y"});
  EXPECT_THROW(csv.add_row({"1"}), CheckError);
}

// ---- cli ---------------------------------------------------------------------

TEST(Cli, ParsesKeyValueStyles) {
  const char* argv[] = {"prog", "pos", "--alpha", "3", "--beta=4", "--flag"};
  CliArgs args(6, argv);
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get_int("beta", 0), 4);
  EXPECT_TRUE(args.get_bool("flag", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos");
}

TEST(Cli, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.get_int("nope", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("nope", 1.5), 1.5);
  EXPECT_EQ(args.get_string("nope", "x"), "x");
  EXPECT_FALSE(args.get_bool("nope", false));
}

TEST(Cli, BadNumberThrows) {
  const char* argv[] = {"prog", "--n", "abc"};
  CliArgs args(3, argv);
  EXPECT_THROW(static_cast<void>(args.get_int("n", 0)), CheckError);
  EXPECT_THROW(static_cast<void>(args.get_double("n", 0)), CheckError);
}

TEST(Cli, BoolParsing) {
  const char* argv[] = {"prog", "--a", "true", "--b", "off", "--c", "weird"};
  CliArgs args(7, argv);
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_THROW(static_cast<void>(args.get_bool("c", false)), CheckError);
}

TEST(Cli, KeysEnumeration) {
  const char* argv[] = {"prog", "--one", "1", "--two=2"};
  CliArgs args(4, argv);
  const auto keys = args.keys();
  EXPECT_EQ(keys.size(), 2u);
}

}  // namespace
}  // namespace fastpso
