// Tests for the 2-D slice utilities and AR(1) noise.
#include <gtest/gtest.h>

#include <memory>

#include "cluster/simulated_cluster.h"
#include "core/landscape.h"
#include "core/pro.h"
#include "core/session.h"
#include "gs2/slice.h"
#include "gs2/surface.h"
#include "stats/autocorr.h"
#include "util/summary.h"
#include "varmodel/ar1_noise.h"

namespace protuner {
namespace {

// --------------------------------------------------------------------- slice

TEST(Slice, DimensionsMatchSweptAxes) {
  const auto space = gs2::gs2_space();
  const gs2::Gs2Surface surface;
  const auto s =
      gs2::take_slice(space, surface, space.center(), gs2::kNtheta,
                      gs2::kNodes);
  EXPECT_EQ(s.x_values.size(), space.param(gs2::kNtheta).values().size());
  EXPECT_EQ(s.y_values.size(), space.param(gs2::kNodes).values().size());
  ASSERT_EQ(s.grid.size(), s.x_values.size());
  ASSERT_EQ(s.grid[0].size(), s.y_values.size());
  EXPECT_LE(s.min_value, s.max_value);
}

TEST(Slice, Fig8SliceHasMultipleLocalMinima) {
  const auto space = gs2::gs2_space();
  const gs2::Gs2Surface surface;
  const auto s = gs2::take_slice(space, surface, space.center(),
                                 gs2::kNtheta, gs2::kNodes);
  EXPECT_GE(s.local_minima(), 2u);
  EXPECT_GT(s.max_neighbor_jump(), 0.0);
}

TEST(Slice, SmoothBowlHasOneMinimumAndSmallJumps) {
  const core::ParameterSpace space({core::Parameter::integer("x", 0, 20),
                                    core::Parameter::integer("y", 0, 20)});
  const core::QuadraticLandscape land(core::Point{10.0, 10.0}, 1.0, 0.01);
  const auto s = gs2::take_slice(space, land, space.center(), 0, 1);
  EXPECT_EQ(s.local_minima(), 1u);
}

TEST(Slice, AsciiHasOneRowPerXValue) {
  const core::ParameterSpace space({core::Parameter::integer("x", 0, 4),
                                    core::Parameter::integer("y", 0, 7)});
  const core::QuadraticLandscape land(core::Point{2.0, 3.0}, 1.0, 1.0);
  const auto s = gs2::take_slice(space, land, space.center(), 0, 1);
  const std::string art = s.ascii();
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 5);
}

TEST(Slice, ContinuousAxisUsesRequestedLevels) {
  const core::ParameterSpace space(
      {core::Parameter::continuous("x", 0.0, 1.0),
       core::Parameter::integer("y", 0, 3)});
  const core::QuadraticLandscape land(core::Point{0.5, 1.0}, 1.0, 1.0);
  const auto s =
      gs2::take_slice(space, land, space.center(), 0, 1, /*levels=*/5);
  EXPECT_EQ(s.x_values.size(), 5u);
}

// ----------------------------------------------------------------- AR1 noise

TEST(Ar1Noise, LongRunMeanMatchesEq7) {
  varmodel::Ar1Config cfg;
  cfg.rho = 0.2;
  cfg.alpha = 2.5;
  const varmodel::Ar1Noise noise(cfg);
  util::Rng rng(1);
  double s = 0.0;
  constexpr int kN = 300000;
  for (int i = 0; i < kN; ++i) s += noise.sample(4.0, rng);
  EXPECT_NEAR(s / kN, noise.expected(4.0), noise.expected(4.0) * 0.06);
}

TEST(Ar1Noise, TemporallyCorrelated) {
  varmodel::Ar1Config cfg;
  cfg.rho = 0.3;
  cfg.phi = 0.95;
  cfg.level_share = 1.0;  // pure level process: correlation is clean
  const varmodel::Ar1Noise noise(cfg);
  util::Rng rng(2);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = noise.sample(1.0, rng);
  EXPECT_GT(stats::autocorrelation(xs, 1), 0.7);
}

TEST(Ar1Noise, ZeroRhoIsSilent) {
  varmodel::Ar1Config cfg;
  cfg.rho = 0.0;
  const varmodel::Ar1Noise noise(cfg);
  util::Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(noise.sample(1.0, rng), 0.0);
  }
}

TEST(Ar1Noise, ProStillTunesUnderTemporalCorrelation) {
  const core::ParameterSpace space({core::Parameter::integer("a", 0, 20),
                                    core::Parameter::integer("b", 0, 20)});
  auto land = std::make_shared<core::QuadraticLandscape>(
      core::Point{15.0, 5.0}, 1.0, 0.3);
  varmodel::Ar1Config cfg;
  cfg.rho = 0.25;
  auto noise = std::make_shared<varmodel::Ar1Noise>(cfg);
  cluster::SimulatedCluster machine(land, noise, {.ranks = 8, .seed = 4});
  core::ProOptions opts;
  opts.samples = 3;
  core::ProStrategy pro(space, opts);
  const auto r = core::run_session(pro, machine, {.steps = 250});
  EXPECT_LT(r.best_clean, land->clean_time(space.center()));
}

}  // namespace
}  // namespace protuner
