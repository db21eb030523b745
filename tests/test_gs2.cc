// Tests for the GS2 surrogate: surface structure, database interpolation,
// and trace generation.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>

#include "core/landscape.h"
#include "gs2/database.h"
#include "gs2/surface.h"
#include "gs2/trace.h"
#include "varmodel/pareto_noise.h"

namespace protuner::gs2 {
namespace {

TEST(Gs2Space, ShapeMatchesPaperStudy) {
  const auto space = gs2_space();
  ASSERT_EQ(space.size(), 3u);
  EXPECT_EQ(space.param(kNtheta).name(), "ntheta");
  EXPECT_EQ(space.param(kNegrid).name(), "negrid");
  EXPECT_EQ(space.param(kNodes).name(), "nodes");
  EXPECT_TRUE(space.admissible(core::Point{16.0, 8.0, 4.0}));
  EXPECT_TRUE(space.admissible(core::Point{64.0, 32.0, 64.0}));
  EXPECT_FALSE(space.admissible(core::Point{17.0, 8.0, 4.0}));   // odd ntheta
  EXPECT_FALSE(space.admissible(core::Point{16.0, 8.0, 6.0}));   // nodes % 4
}

TEST(Gs2Surface, StrictlyPositiveEverywhere) {
  const Gs2Surface surface;
  const auto space = gs2_space();
  util::Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    EXPECT_GT(surface.clean_time(space.random_point(rng)), 0.0);
  }
}

TEST(Gs2Surface, MoreNodesHelpsUntilCommDominates) {
  const Gs2Surface surface;
  const double few = surface.clean_time(core::Point{48.0, 24.0, 4.0});
  const double mid = surface.clean_time(core::Point{48.0, 24.0, 24.0});
  const double many = surface.clean_time(core::Point{48.0, 24.0, 128.0});
  EXPECT_LT(mid, few);    // scaling out pays at first
  EXPECT_GT(many, mid);   // then communication wins
}

TEST(Gs2Surface, WorkGrowsWithResolution) {
  const Gs2Surface surface;
  EXPECT_LT(surface.clean_time(core::Point{16.0, 8.0, 16.0}),
            surface.clean_time(core::Point{64.0, 32.0, 16.0}));
}

TEST(Gs2Surface, HasMultipleLocalMinimaAlongNodes) {
  // Fig. 8 structure: the divisibility sawtooth creates non-monotone
  // behaviour, i.e. at least one interior local minimum in the nodes axis.
  const Gs2Surface surface;
  const auto space = gs2_space();
  const auto& nodes = space.param(kNodes).values();
  int sign_changes = 0;
  double prev_delta = 0.0;
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    const double a =
        surface.clean_time(core::Point{30.0, 17.0, nodes[i - 1]});
    const double b = surface.clean_time(core::Point{30.0, 17.0, nodes[i]});
    const double delta = b - a;
    if (i > 1 && delta * prev_delta < 0.0) ++sign_changes;
    prev_delta = delta;
  }
  EXPECT_GE(sign_changes, 1);
}

TEST(Database, ExactEntriesRoundTrip) {
  const auto space = gs2_space();
  const Gs2Surface surface;
  const Database db = Database::measure(space, surface, {});
  EXPECT_GT(db.entries(), 100u);
  // Every stored entry reproduces its stored value exactly.
  const core::Point probe{16.0, 8.0, 4.0};
  const auto hit = db.exact(probe);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(db.clean_time(probe), *hit);
}

TEST(Database, InterpolatesOffGridPoints) {
  const auto space = gs2_space();
  const Gs2Surface surface;
  const Database db = Database::measure(space, surface, {});
  // negrid is decimated with stride 2, so some odd values are off-grid.
  core::Point off{16.0, 9.0, 4.0};
  if (db.exact(off).has_value()) off[kNegrid] = 11.0;
  ASSERT_FALSE(db.exact(off).has_value());
  const double v = db.clean_time(off);
  EXPECT_GT(v, 0.0);
  // Interpolation must stay within the surface's plausible range around it.
  const double lo = surface.clean_time(core::Point{16.0, 8.0, 4.0});
  const double hi = surface.clean_time(core::Point{16.0, 12.0, 4.0});
  EXPECT_GT(v, 0.5 * std::min(lo, hi));
  EXPECT_LT(v, 2.0 * std::max(lo, hi));
}

TEST(Database, InterpolationIsWeightedTowardNearestNeighbor) {
  core::ParameterSpace space({core::Parameter::integer("x", 0, 10)});
  const Database db(space, {{core::Point{0.0}, 1.0}, {core::Point{10.0}, 11.0}},
                    {.stride = 1, .interpolation_neighbors = 2});
  const double near_low = db.clean_time(core::Point{1.0});
  const double near_high = db.clean_time(core::Point{9.0});
  EXPECT_LT(near_low, 6.0);
  EXPECT_GT(near_high, 6.0);
}

TEST(Database, SingleNeighborTakesNearestEntry) {
  core::ParameterSpace space({core::Parameter::integer("x", 0, 10)});
  const Database db(space, {{core::Point{0.0}, 1.0}, {core::Point{6.0}, 42.0}},
                    {.stride = 1, .interpolation_neighbors = 1});
  EXPECT_DOUBLE_EQ(db.clean_time(core::Point{5.0}), 42.0);
  EXPECT_DOUBLE_EQ(db.clean_time(core::Point{2.0}), 1.0);
}

TEST(Database, MeasureRejectsNonPositiveAndNanTimes) {
  // Checked in every build, not by assert: a source that yields 0 or NaN
  // at one grid point must not reach the table.
  core::ParameterSpace space({core::Parameter::integer("x", 0, 10)});
  const core::FunctionLandscape zero(
      "zero", [](const core::Point& x) { return x[0] == 4.0 ? 0.0 : 1.0; });
  const core::FunctionLandscape nan("nan", [](const core::Point& x) {
    return x[0] == 4.0 ? std::numeric_limits<double>::quiet_NaN() : 1.0;
  });
  EXPECT_THROW((void)Database::measure(space, zero, {}), std::invalid_argument);
  EXPECT_THROW((void)Database::measure(space, nan, {}), std::invalid_argument);
}

TEST(Database, MeasurementNoiseBakedIn) {
  const auto space = gs2_space();
  const Gs2Surface surface;
  const varmodel::ParetoNoise noise(0.2, 1.7);
  const Database noisy = Database::measure(space, surface, {}, &noise, 9);
  const Database clean = Database::measure(space, surface, {});
  const core::Point probe{16.0, 8.0, 4.0};
  EXPECT_GT(*noisy.exact(probe), *clean.exact(probe));
}

TEST(Trace, ShapeAndDeterminism) {
  const Gs2Surface surface;
  TraceConfig cfg;
  cfg.ranks = 4;
  cfg.iterations = 100;
  const auto t1 = generate_trace(surface, {32.0, 16.0, 16.0}, cfg);
  const auto t2 = generate_trace(surface, {32.0, 16.0, 16.0}, cfg);
  ASSERT_EQ(t1.size(), 4u);
  ASSERT_EQ(t1[0].size(), 100u);
  EXPECT_EQ(t1, t2);
}

TEST(Trace, FlattenConcatenatesAllRanks) {
  const Gs2Surface surface;
  TraceConfig cfg;
  cfg.ranks = 3;
  cfg.iterations = 10;
  const auto trace = generate_trace(surface, {32.0, 16.0, 16.0}, cfg);
  EXPECT_EQ(flatten(trace).size(), 30u);
}

TEST(Trace, CrossRankCorrelationIsHigh) {
  // Fig. 3's "high correlation and similarity between the curves".
  const Gs2Surface surface;
  TraceConfig cfg;
  cfg.ranks = 2;
  cfg.iterations = 4000;
  cfg.shocks.big_prob = 0.05;
  const auto trace = generate_trace(surface, {32.0, 16.0, 16.0}, cfg);
  EXPECT_GT(rank_correlation(trace[0], trace[1]), 0.5);
}

TEST(Trace, UncorrelatedWhenSharedShocksOff) {
  const Gs2Surface surface;
  TraceConfig cfg;
  cfg.ranks = 2;
  cfg.iterations = 4000;
  cfg.shocks.big_prob = 0.0;  // only idiosyncratic spikes remain
  const auto trace = generate_trace(surface, {32.0, 16.0, 16.0}, cfg);
  EXPECT_LT(std::abs(rank_correlation(trace[0], trace[1])), 0.2);
}

}  // namespace
}  // namespace protuner::gs2
