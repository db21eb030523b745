// Tests for the I/O utilities: CSV writer, ASCII plots and env parsing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <vector>

#include "util/ascii_plot.h"
#include "util/csv.h"
#include "util/env.h"

namespace protuner::util {
namespace {

TEST(Csv, HeaderAndRows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"a", "b", "c"});
  csv.row(1, 2.5, "x");
  EXPECT_EQ(out.str(), "a,b,c\n1,2.5,x\n");
}

TEST(Csv, QuotesFieldsWithSeparator) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.row("hello,world", 1);
  EXPECT_EQ(out.str(), "\"hello,world\",1\n");
}

TEST(Csv, EscapesEmbeddedQuotes) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.row("say \"hi\",now");
  EXPECT_EQ(out.str(), "\"say \"\"hi\"\",now\"\n");
}

TEST(Csv, CustomSeparator) {
  std::ostringstream out;
  CsvWriter csv(out, ';');
  csv.row(1, 2);
  EXPECT_EQ(out.str(), "1;2\n");
}

TEST(AsciiPlot, RendersSeriesAndLegend) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  std::vector<double> ys{1, 4, 9, 16, 25};
  PlotOptions po;
  po.title = "squares";
  const std::string plot = line_plot("sq", xs, ys, po);
  EXPECT_NE(plot.find("squares"), std::string::npos);
  EXPECT_NE(plot.find("[*] sq"), std::string::npos);
  EXPECT_NE(plot.find('*'), std::string::npos);
}

TEST(AsciiPlot, EmptySeriesHandled) {
  const std::string plot =
      line_plot("none", std::vector<double>{}, std::vector<double>{}, {});
  EXPECT_NE(plot.find("no plottable points"), std::string::npos);
}

TEST(AsciiPlot, LogAxesSkipNonPositive) {
  std::vector<double> xs{-1.0, 1.0, 10.0, 100.0};
  std::vector<double> ys{5.0, 1.0, 0.1, 0.01};
  PlotOptions po;
  po.log_x = true;
  po.log_y = true;
  const std::string plot = line_plot("ll", xs, ys, po);
  EXPECT_NE(plot.find('*'), std::string::npos);  // survives the bad point
}

TEST(AsciiPlot, MultiSeriesUsesDistinctGlyphs) {
  std::vector<Series> series{
      {"one", {1, 2, 3}, {1, 2, 3}},
      {"two", {1, 2, 3}, {3, 2, 1}},
  };
  const std::string plot = line_plot(series, {});
  EXPECT_NE(plot.find("[*] one"), std::string::npos);
  EXPECT_NE(plot.find("[o] two"), std::string::npos);
}

TEST(AsciiHistogram, BarsProportionalToCounts) {
  const std::vector<double> edges{0.0, 1.0, 2.0};
  const std::vector<double> counts{10.0, 5.0};
  const std::string plot = histogram_plot(edges, counts, {});
  // Two bin rows with hashes; first bar longer than second.
  const auto first = plot.find('#');
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(plot.find("10"), std::string::npos);
}

TEST(AsciiHistogram, MismatchedEdgesHandled) {
  const std::vector<double> edges{0.0, 1.0};
  const std::vector<double> counts{1.0, 2.0};  // wrong arity
  const std::string plot = histogram_plot(edges, counts, {});
  EXPECT_NE(plot.find("empty histogram"), std::string::npos);
}

TEST(Env, LongParsesAndFallsBack) {
  ::setenv("PROTUNER_TEST_LONG", "42", 1);
  EXPECT_EQ(env_long("PROTUNER_TEST_LONG", 7), 42);
  ::setenv("PROTUNER_TEST_LONG", "abc", 1);
  EXPECT_EQ(env_long("PROTUNER_TEST_LONG", 7), 7);
  ::unsetenv("PROTUNER_TEST_LONG");
  EXPECT_EQ(env_long("PROTUNER_TEST_LONG", 7), 7);
}

// strtol clamps an out-of-range value to LONG_MAX/LONG_MIN and reports
// ERANGE; a clamped value is not the number asked for, so it falls back
// like any other unparsable input (REPRO_REPS=99999999999999999999 must
// not ask a harness for LONG_MAX repetitions).
TEST(Env, LongOutOfRangeFallsBack) {
  ::setenv("PROTUNER_TEST_LONG", "99999999999999999999", 1);
  EXPECT_EQ(env_long("PROTUNER_TEST_LONG", 7), 7);
  ::setenv("PROTUNER_TEST_LONG", "-99999999999999999999", 1);
  EXPECT_EQ(env_long("PROTUNER_TEST_LONG", 7), 7);
  ::setenv("PROTUNER_TEST_LONG", "-42", 1);
  EXPECT_EQ(env_long("PROTUNER_TEST_LONG", 7), -42);
  ::unsetenv("PROTUNER_TEST_LONG");
}

}  // namespace
}  // namespace protuner::util
