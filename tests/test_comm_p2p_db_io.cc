// Tests for database save/load persistence and the input checks on load()
// and the table constructor.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "gs2/database.h"
#include "gs2/surface.h"
#include "util/rng.h"
#include "varmodel/pareto_noise.h"

namespace protuner {
namespace {

TEST(DatabaseIo, SaveLoadRoundTrip) {
  const auto space = gs2::gs2_space();
  const gs2::Gs2Surface surface;
  const gs2::Database db = gs2::Database::measure(space, surface, {});

  std::stringstream buffer;
  db.save(buffer);
  const gs2::Database loaded = gs2::Database::load(buffer, space);

  EXPECT_EQ(loaded.entries(), db.entries());
  const core::Point probe{16.0, 8.0, 4.0};
  EXPECT_DOUBLE_EQ(*loaded.exact(probe), *db.exact(probe));
  // Interpolated lookups agree too (same entries, same options).
  const core::Point off{16.0, 9.0, 4.0};
  EXPECT_DOUBLE_EQ(loaded.clean_time(off), db.clean_time(off));
}

std::string saved(const gs2::Database& db) {
  std::ostringstream out;
  db.save(out);
  return out.str();
}

TEST(DatabaseIo, SaveLoadSaveIsByteIdentical) {
  const auto space = gs2::gs2_space();
  const gs2::Gs2Surface surface;
  const varmodel::ParetoNoise noise(0.3, 1.7);
  for (const varmodel::NoiseModel* n :
       {static_cast<const varmodel::NoiseModel*>(nullptr),
        static_cast<const varmodel::NoiseModel*>(&noise)}) {
    const std::string first =
        saved(gs2::Database::measure(space, surface, {}, n, 5));
    std::istringstream in(first);
    EXPECT_EQ(saved(gs2::Database::load(in, space)), first);
  }
}

TEST(DatabaseIo, LoadOfShuffledRowsWithADuplicateEqualsSortedInput) {
  // load() keys rows by point, so row order does not matter, and of two
  // rows with the same point the later one wins.
  const auto space = gs2::gs2_space();
  const gs2::Gs2Surface surface;
  const std::string sorted =
      saved(gs2::Database::measure(space, surface, {.stride = 6}));
  std::vector<std::string> rows;
  std::istringstream lines(sorted);
  for (std::string line; std::getline(lines, line);) rows.push_back(line);
  ASSERT_EQ(rows.size(), 11u * 11u * 7u);
  util::Rng rng(3);
  for (std::size_t i = rows.size(); i > 1; --i) {
    std::swap(rows[i - 1], rows[static_cast<std::size_t>(
                               rng.uniform_int(0, static_cast<long>(i) - 1))]);
  }
  // A stale copy of the row now at position 10, with another time, placed
  // before it: the later row must win.
  const std::string& kept = rows[10];
  const std::string stale = kept.substr(0, kept.rfind(',') + 1) + "123.5";
  rows.insert(rows.begin() + 4, stale);
  std::string shuffled;
  for (const std::string& row : rows) shuffled += row + '\n';
  std::istringstream in(shuffled);
  const gs2::Database db = gs2::Database::load(in, space);
  EXPECT_EQ(db.entries(), 11u * 11u * 7u);
  EXPECT_EQ(saved(db), sorted);
}

TEST(DatabaseIo, SignedZeroAxisValueIsTheFirstKeyInMapOrder) {
  // -0.0 == +0.0, so std::map folds keys that differ only in a zero's
  // sign, and the grid keeps one value per axis position: that of the
  // first key in map order, which save() then prints on every row.
  const core::ParameterSpace space({core::Parameter::integer("x", -1, 1),
                                    core::Parameter::integer("y", 0, 1)});
  const auto table = [](double first_zero, double second_zero) {
    return std::map<core::Point, double>{{{-1.0, 0.0}, 3.0},
                                         {{-1.0, 1.0}, 4.0},
                                         {{first_zero, 0.0}, 1.0},
                                         {{second_zero, 1.0}, 2.0}};
  };
  const gs2::Database negative(space, table(-0.0, 0.0));
  EXPECT_EQ(saved(negative), "-1,0,3\n-1,1,4\n-0,0,1\n-0,1,2\n");
  const gs2::Database positive(space, table(0.0, -0.0));
  EXPECT_EQ(saved(positive), "-1,0,3\n-1,1,4\n0,0,1\n0,1,2\n");
  // load() goes through the same map, and either zero finds the row.
  std::istringstream in("0,1,2\n-1,0,3\n-0,0,1\n-1,1,4\n");
  const gs2::Database loaded = gs2::Database::load(in, space);
  EXPECT_EQ(saved(loaded), "-1,0,3\n-1,1,4\n-0,0,1\n-0,1,2\n");
  EXPECT_EQ(loaded.exact(core::Point{0.0, 1.0}), 2.0);
  EXPECT_EQ(loaded.exact(core::Point{-0.0, 0.0}), 1.0);
}

TEST(DatabaseIo, LoadRejectsArityMismatch) {
  const core::ParameterSpace space({core::Parameter::integer("x", 0, 9)});
  std::stringstream buffer("1.0,2.0,3.0\n");  // 2 coords + value for 1-D
  EXPECT_THROW((void)gs2::Database::load(buffer, space), std::runtime_error);
}

TEST(DatabaseIo, LoadRejectsGarbage) {
  const core::ParameterSpace space({core::Parameter::integer("x", 0, 9)});
  std::stringstream buffer("1.0,banana\n");
  EXPECT_THROW((void)gs2::Database::load(buffer, space), std::runtime_error);
}

TEST(DatabaseIo, LoadSkipsEmptyLines) {
  const core::ParameterSpace space({core::Parameter::integer("x", 0, 9)});
  std::stringstream buffer("1,2.5\n\n3,4.5\n");
  const gs2::Database db = gs2::Database::load(buffer, space);
  EXPECT_EQ(db.entries(), 2u);
  EXPECT_DOUBLE_EQ(*db.exact(core::Point{3.0}), 4.5);
}

TEST(DatabaseIo, RoundTripPreservesFullPrecision) {
  const core::ParameterSpace space({core::Parameter::integer("x", 0, 9)});
  const gs2::Database db(space, {{core::Point{1.0}, 0.12345678901234567}});
  std::stringstream buffer;
  db.save(buffer);
  const gs2::Database loaded = gs2::Database::load(buffer, space);
  EXPECT_DOUBLE_EQ(*loaded.exact(core::Point{1.0}), 0.12345678901234567);
}

TEST(DatabaseIo, LoadRejectsEmptyInput) {
  // An empty table has no neighbours to interpolate from, so it is
  // rejected at load time rather than on the first lookup.
  const core::ParameterSpace space({core::Parameter::integer("x", 0, 9)});
  for (const char* text : {"", "\n\n"}) {
    std::stringstream buffer(text);
    EXPECT_THROW((void)gs2::Database::load(buffer, space), std::runtime_error)
        << "input '" << text << "'";
  }
}

TEST(DatabaseIo, LoadRejectsNonFiniteValuesAndNonPositiveTimes) {
  // Checked in every build: the grid's sorted axes need finite coordinates
  // and interpolation needs finite positive times.  The error names the
  // line.
  const core::ParameterSpace space({core::Parameter::integer("x", 0, 9)});
  for (const char* row :
       {"nan,1.0", "inf,1.0", "-inf,1.0", "1,nan", "1,inf", "1,0", "1,-2.5"}) {
    std::stringstream buffer(std::string("2,3.5\n") + row + "\n");
    try {
      (void)gs2::Database::load(buffer, space);
      ADD_FAILURE() << "accepted row '" << row << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
}

TEST(DatabaseIo, ConstructorRejectsBadEntriesAndEmptyTable) {
  const core::ParameterSpace space({core::Parameter::integer("x", 0, 9),
                                    core::Parameter::integer("y", 0, 9)});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // One entry per table: a NaN coordinate compares unordered, so std::map
  // would fold it into any other key.
  const auto build = [&](const core::Point& x, double time) {
    return gs2::Database(space, {{x, time}});
  };
  EXPECT_THROW((void)build(core::Point{nan, 1.0}, 1.0), std::invalid_argument);
  EXPECT_THROW((void)build(core::Point{1.0, -inf}, 1.0), std::invalid_argument);
  EXPECT_THROW((void)build(core::Point{1.0, 1.0}, nan), std::invalid_argument);
  EXPECT_THROW((void)build(core::Point{1.0, 1.0}, inf), std::invalid_argument);
  EXPECT_THROW((void)build(core::Point{1.0, 1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW((void)build(core::Point{1.0, 1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW((void)build(core::Point{1.0}, 1.0), std::invalid_argument);
  EXPECT_THROW((void)gs2::Database(space, {}), std::invalid_argument);
  const gs2::Database db = build(core::Point{1.0, 2.0}, 3.0);
  EXPECT_EQ(db.entries(), 1u);
  EXPECT_EQ(db.clean_time(core::Point{1.0, 2.0}), 3.0);
}

}  // namespace
}  // namespace protuner
