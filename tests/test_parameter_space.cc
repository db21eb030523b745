// Tests for parameter declarations and the admissible region.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/parameter_space.h"
#include "util/rng.h"

namespace protuner::core {
namespace {

TEST(Parameter, ContinuousAdmissibility) {
  const auto p = Parameter::continuous("x", 0.0, 10.0);
  EXPECT_TRUE(p.admissible(0.0));
  EXPECT_TRUE(p.admissible(3.7));
  EXPECT_TRUE(p.admissible(10.0));
  EXPECT_FALSE(p.admissible(-0.1));
  EXPECT_FALSE(p.admissible(10.1));
}

TEST(Parameter, IntegerAdmissibility) {
  const auto p = Parameter::integer("n", 2, 8);
  EXPECT_TRUE(p.admissible(2.0));
  EXPECT_TRUE(p.admissible(5.0));
  EXPECT_FALSE(p.admissible(5.5));
  EXPECT_FALSE(p.admissible(9.0));
}

TEST(Parameter, DiscreteSetSortedAndDeduplicated) {
  const auto p = Parameter::discrete("d", {8.0, 2.0, 4.0, 4.0});
  EXPECT_EQ(p.values(), (std::vector<double>{2.0, 4.0, 8.0}));
  EXPECT_DOUBLE_EQ(p.lower(), 2.0);
  EXPECT_DOUBLE_EQ(p.upper(), 8.0);
  EXPECT_TRUE(p.admissible(4.0));
  EXPECT_FALSE(p.admissible(3.0));
}

TEST(Parameter, FloorCeilOnIntegerGrid) {
  const auto p = Parameter::integer("n", 0, 10);
  EXPECT_DOUBLE_EQ(p.floor_value(3.7), 3.0);
  EXPECT_DOUBLE_EQ(p.ceil_value(3.2), 4.0);
  EXPECT_DOUBLE_EQ(p.floor_value(-5.0), 0.0);   // clamps
  EXPECT_DOUBLE_EQ(p.ceil_value(99.0), 10.0);   // clamps
}

TEST(Parameter, FloorCeilOnDiscreteSet) {
  const auto p = Parameter::discrete("d", {2.0, 4.0, 8.0, 16.0});
  EXPECT_DOUBLE_EQ(p.floor_value(7.0), 4.0);
  EXPECT_DOUBLE_EQ(p.ceil_value(7.0), 8.0);
  EXPECT_DOUBLE_EQ(p.floor_value(4.0), 4.0);
  EXPECT_DOUBLE_EQ(p.ceil_value(4.0), 4.0);
}

TEST(Parameter, NeighborsOnIntegerGrid) {
  const auto p = Parameter::integer("n", 0, 5);
  EXPECT_DOUBLE_EQ(p.neighbor_above(2.0), 3.0);
  EXPECT_DOUBLE_EQ(p.neighbor_below(2.0), 1.0);
  EXPECT_DOUBLE_EQ(p.neighbor_above(5.0), 5.0);  // boundary: itself
  EXPECT_DOUBLE_EQ(p.neighbor_below(0.0), 0.0);
}

TEST(Parameter, NeighborsOnDiscreteSet) {
  const auto p = Parameter::discrete("d", {1.0, 10.0, 100.0});
  EXPECT_DOUBLE_EQ(p.neighbor_above(10.0), 100.0);
  EXPECT_DOUBLE_EQ(p.neighbor_below(10.0), 1.0);
  EXPECT_DOUBLE_EQ(p.neighbor_above(100.0), 100.0);
}

std::uint64_t bits(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

TEST(Parameter, OneSearchMatchesStdSearchesBitForBit) {
  // Every discrete-value lookup goes through Parameter::lower_index.  Check
  // it, and each lookup built on it, against the std:: searches they
  // replaced, bit for bit: a -0.0 query against a stored +0.0 must still
  // return the stored element, and NaN must behave as it did.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> sets = {
      {1.0, 2.0, 4.0, 8.0, 16.0}, {0.0},      {-1.0, 0.0, 1.0},
      {0.0, 10.0},                {-3.0, 0.0}, {0.0, 0.5, 0.75, 2.0}};
  util::Rng rng(29);
  for (int k = 0; k < 60; ++k) {
    std::vector<double> v(1 + k % 37);
    for (double& x : v) {
      x = k % 2 == 0 ? std::round(rng.uniform(-20.0, 20.0))
                     : rng.uniform(-1e3, 1e3);
    }
    sets.push_back(v);
  }
  for (const std::vector<double>& raw : sets) {
    const Parameter p = Parameter::discrete("d", raw);
    const std::vector<double>& v = p.values();
    const double lo = p.lower(), hi = p.upper();
    const double span = std::max(1.0, hi - lo);
    std::vector<double> queries = {nan,      -nan,      -0.0, 0.0,
                                   lo - 1.0, hi + 1.0, -inf, inf};
    for (std::size_t i = 0; i < v.size(); ++i) {
      queries.push_back(v[i]);
      if (i + 1 < v.size()) queries.push_back(0.5 * (v[i] + v[i + 1]));
    }
    for (int q = 0; q < 200; ++q) {
      queries.push_back(rng.uniform(lo - 0.25 * span, hi + 0.25 * span));
    }
    for (const double x : queries) {
      SCOPED_TRACE(testing::Message() << "x = " << x << " over "
                                      << v.size() << " values from " << lo);
      const auto lb = std::lower_bound(v.begin(), v.end(), x);
      const auto ub = std::upper_bound(v.begin(), v.end(), x);
      EXPECT_EQ(p.lower_index(x), static_cast<std::size_t>(lb - v.begin()));

      const bool admissible =
          !(x < lo || x > hi) && std::binary_search(v.begin(), v.end(), x);
      EXPECT_EQ(p.admissible(x), admissible);
      const double floor_ref = x <= lo ? lo : x >= hi ? hi : *(ub - 1);
      const double ceil_ref = x <= lo ? lo : x >= hi ? hi : *lb;
      EXPECT_EQ(bits(p.floor_value(x)), bits(floor_ref));
      EXPECT_EQ(bits(p.ceil_value(x)), bits(ceil_ref));
      if (admissible && !std::isnan(x)) {
        const double above_ref = ub == v.end() ? x : *ub;
        const double below_ref = lb == v.begin() ? x : *(lb - 1);
        EXPECT_EQ(bits(p.neighbor_above(x)), bits(above_ref));
        EXPECT_EQ(bits(p.neighbor_below(x)), bits(below_ref));
      }
    }
  }
}

TEST(Parameter, NearestPicksCloserSide) {
  const auto p = Parameter::discrete("d", {0.0, 10.0});
  EXPECT_DOUBLE_EQ(p.nearest(4.0), 0.0);
  EXPECT_DOUBLE_EQ(p.nearest(6.0), 10.0);
  EXPECT_DOUBLE_EQ(p.nearest(5.0), 0.0);  // tie goes low
}

TEST(ParameterSpace, CenterIsAdmissible) {
  const ParameterSpace space({
      Parameter::continuous("c", 0.0, 1.0),
      Parameter::integer("i", 0, 9),
      Parameter::discrete("d", {1.0, 2.0, 7.0}),
  });
  const Point c = space.center();
  EXPECT_TRUE(space.admissible(c));
  EXPECT_DOUBLE_EQ(c[0], 0.5);
  // Integer mid of [0,9] is 4.5 -> snapped to 4 or 5.
  EXPECT_TRUE(c[1] == 4.0 || c[1] == 5.0);
  // Discrete mid of [1,7] is 4 -> nearest in {1,2,7} is 2.
  EXPECT_DOUBLE_EQ(c[2], 2.0);
}

TEST(ParameterSpace, AdmissibleRejectsWrongArityAndValues) {
  const ParameterSpace space({Parameter::integer("i", 0, 5)});
  EXPECT_FALSE(space.admissible(Point{1.0, 2.0}));
  EXPECT_FALSE(space.admissible(Point{1.5}));
  EXPECT_TRUE(space.admissible(Point{1.0}));
}

TEST(ParameterSpace, SnapNearestProducesAdmissible) {
  const ParameterSpace space({
      Parameter::integer("i", 0, 9),
      Parameter::discrete("d", {4.0, 8.0, 16.0}),
  });
  const Point snapped = space.snap_nearest(Point{3.6, 11.0});
  EXPECT_TRUE(space.admissible(snapped));
  EXPECT_DOUBLE_EQ(snapped[0], 4.0);
  EXPECT_DOUBLE_EQ(snapped[1], 8.0);
}

TEST(ParameterSpace, RandomPointsAreAdmissibleAndCoverAxes) {
  const ParameterSpace space({
      Parameter::continuous("c", -1.0, 1.0),
      Parameter::integer("i", 0, 3),
      Parameter::discrete("d", {1.0, 2.0}),
  });
  util::Rng rng(17);
  bool saw_low_d = false, saw_high_d = false;
  for (int i = 0; i < 500; ++i) {
    const Point x = space.random_point(rng);
    ASSERT_TRUE(space.admissible(x));
    saw_low_d |= (x[2] == 1.0);
    saw_high_d |= (x[2] == 2.0);
  }
  EXPECT_TRUE(saw_low_d);
  EXPECT_TRUE(saw_high_d);
}

}  // namespace
}  // namespace protuner::core
