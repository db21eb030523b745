// Tests for database save/load persistence and the input checks on load()
// and insert().
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "gs2/database.h"
#include "gs2/surface.h"

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
  gs2::Database db(space, {});
  db.insert(core::Point{1.0}, 0.12345678901234567);
  std::stringstream buffer;
  db.save(buffer);
  const gs2::Database loaded = gs2::Database::load(buffer, space);
  EXPECT_DOUBLE_EQ(*loaded.exact(core::Point{1.0}), 0.12345678901234567);
}

TEST(DatabaseIo, LoadRejectsNonFiniteValuesAndNonPositiveTimes) {
  // Checked in every build: the k-d tree bounds need finite coordinates and
  // interpolation needs finite positive times.  The error names the line.
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

TEST(DatabaseIo, InsertRejectsNonFiniteValuesAndNonPositiveTimes) {
  const core::ParameterSpace space({core::Parameter::integer("x", 0, 9),
                                    core::Parameter::integer("y", 0, 9)});
  gs2::Database db(space, {});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(db.insert(core::Point{nan, 1.0}, 1.0), std::invalid_argument);
  EXPECT_THROW(db.insert(core::Point{1.0, -inf}, 1.0), std::invalid_argument);
  EXPECT_THROW(db.insert(core::Point{1.0, 1.0}, nan), std::invalid_argument);
  EXPECT_THROW(db.insert(core::Point{1.0, 1.0}, inf), std::invalid_argument);
  EXPECT_THROW(db.insert(core::Point{1.0, 1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(db.insert(core::Point{1.0, 1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW(db.insert(core::Point{1.0}, 1.0), std::invalid_argument);
  EXPECT_EQ(db.entries(), 0u);
  db.insert(core::Point{1.0, 2.0}, 3.0);
  EXPECT_EQ(db.entries(), 1u);
  EXPECT_EQ(db.clean_time(core::Point{1.0, 2.0}), 3.0);
}

}  // namespace
}  // namespace protuner
