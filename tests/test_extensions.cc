// Tests for the extension features: bursty noise, adaptive-K PRO (the
// paper's stated future work) and spec-built harmony sessions.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/simulated_cluster.h"
#include "core/landscape.h"
#include "core/parameter_space.h"
#include "core/pro.h"
#include "core/session.h"
#include "core/strategy_spec.h"
#include "harmony/server.h"
#include "spec/spec.h"
#include "stats/autocorr.h"
#include "util/summary.h"
#include "varmodel/burst_noise.h"
#include "varmodel/pareto_noise.h"

namespace protuner {
namespace {

// ---------------------------------------------------------------- BurstNoise

TEST(BurstNoise, LongRunMeanMatchesEq7Target) {
  varmodel::BurstConfig cfg;
  cfg.rho = 0.2;
  cfg.alpha = 2.5;  // finite variance for a tight mean test
  const varmodel::BurstNoise noise(cfg);
  util::Rng rng(1);
  double s = 0.0;
  constexpr int kN = 400000;
  for (int i = 0; i < kN; ++i) s += noise.sample(4.0, rng);
  EXPECT_NEAR(s / kN, noise.expected(4.0), noise.expected(4.0) * 0.05);
}

TEST(BurstNoise, DutyCycleFormula) {
  varmodel::BurstConfig cfg;
  cfg.p_enter = 0.05;
  cfg.p_exit = 0.25;
  const varmodel::BurstNoise noise(cfg);
  EXPECT_NEAR(noise.duty_cycle(), 0.05 / 0.30, 1e-12);
}

TEST(BurstNoise, ProducesEpisodes) {
  // Consecutive samples are positively correlated: disturbances cluster.
  varmodel::BurstConfig cfg;
  cfg.rho = 0.3;
  cfg.p_enter = 0.02;
  cfg.p_exit = 0.10;
  const varmodel::BurstNoise noise(cfg);
  util::Rng rng(2);
  std::vector<double> indicator(50000);
  for (auto& v : indicator) v = noise.sample(1.0, rng) > 0.0 ? 1.0 : 0.0;
  EXPECT_GT(stats::autocorrelation(indicator, 1), 0.5);
}

TEST(BurstNoise, QuietStateIsExactlyZero) {
  varmodel::BurstConfig cfg;
  cfg.rho = 0.3;
  const varmodel::BurstNoise noise(cfg);
  util::Rng rng(3);
  int zeros = 0;
  for (int i = 0; i < 1000; ++i) zeros += noise.sample(1.0, rng) == 0.0;
  EXPECT_GT(zeros, 500);  // mostly quiet with these defaults
}

// ----------------------------------------------------------------- AdaptiveK

TEST(AdaptiveK, StaysAtOneWithoutNoise) {
  const core::ParameterSpace space({
      core::Parameter::integer("a", 0, 20),
      core::Parameter::integer("b", 0, 20),
  });
  auto land = std::make_shared<core::QuadraticLandscape>(
      core::Point{5.0, 5.0}, 1.0, 0.2);
  cluster::SimulatedCluster machine(
      land, std::make_shared<varmodel::NoNoise>(), {.ranks = 8, .seed = 3});
  core::ProOptions opts;
  opts.adaptive_samples = true;
  core::ProStrategy pro(space, opts);
  (void)core::run_session(pro, machine, {.steps = 150});
  EXPECT_EQ(pro.current_samples(), 1);
}

TEST(AdaptiveK, GrowsUnderHeavyNoise) {
  const core::ParameterSpace space({
      core::Parameter::integer("a", 0, 20),
      core::Parameter::integer("b", 0, 20),
  });
  auto land = std::make_shared<core::QuadraticLandscape>(
      core::Point{5.0, 5.0}, 1.0, 0.2);
  auto noise = std::make_shared<varmodel::ParetoNoise>(0.35, 1.7);
  // K should rise above 1 in at least a majority of repetitions.
  int grew = 0;
  for (int rep = 0; rep < 10; ++rep) {
    cluster::SimulatedCluster machine(
        land, noise,
        {.ranks = 8, .seed = static_cast<std::uint64_t>(40 + rep)});
    core::ProOptions opts;
    opts.adaptive_samples = true;
    core::ProStrategy pro(space, opts);
    (void)core::run_session(pro, machine, {.steps = 200});
    grew += pro.current_samples() > 1;
  }
  EXPECT_GE(grew, 6);
}

TEST(AdaptiveK, RespectsMaxSamples) {
  const core::ParameterSpace space({
      core::Parameter::integer("a", 0, 20),
      core::Parameter::integer("b", 0, 20),
  });
  auto land = std::make_shared<core::QuadraticLandscape>(
      core::Point{5.0, 5.0}, 1.0, 0.2);
  auto noise = std::make_shared<varmodel::ParetoNoise>(0.4, 1.7);
  cluster::SimulatedCluster machine(land, noise, {.ranks = 8, .seed = 5});
  core::ProOptions opts;
  opts.adaptive_samples = true;
  opts.max_samples = 3;
  core::ProStrategy pro(space, opts);
  (void)core::run_session(pro, machine, {.steps = 300});
  EXPECT_LE(pro.current_samples(), 3);
  EXPECT_GE(pro.current_samples(), 1);
}

// ------------------------------------------------------- Harmony sessions
// The Active Harmony workflow of §1: declare the tunables (type and range),
// pick a strategy by spec, host it in a harmony::Server.

TEST(HarmonySession, ProServerConverges) {
  const core::ParameterSpace space({core::Parameter::integer("a", 0, 20),
                                    core::Parameter::integer("b", 0, 20)});
  harmony::Server server(core::make_strategy("pro:k=2", space), 4);

  const core::QuadraticLandscape land(core::Point{7.0, 3.0}, 1.0, 0.2);
  for (int step = 0; step < 200; ++step) {
    std::vector<core::Point> cfgs;
    for (std::size_t r = 0; r < 4; ++r) cfgs.push_back(server.fetch(r));
    for (std::size_t r = 0; r < 4; ++r) {
      server.report(r, land.clean_time(cfgs[r]));
    }
  }
  EXPECT_EQ(server.best_point(), (core::Point{7.0, 3.0}));
}

TEST(HarmonySession, EveryStrategySpecCompletesARound) {
  const core::ParameterSpace space({core::Parameter::integer("a", 0, 20)});
  for (const auto& entry : core::strategy_registry().entries()) {
    harmony::Server server(core::make_strategy(entry.example, space), 3);
    // One full round must complete without deadlock.
    for (std::size_t r = 0; r < 3; ++r) (void)server.fetch(r);
    for (std::size_t r = 0; r < 3; ++r) server.report(r, 1.0);
    EXPECT_EQ(server.rounds_completed(), 1u) << entry.example;
  }
  // Malformed specs fail loudly with the spec diagnostics.
  EXPECT_THROW((void)core::make_strategy("pro:kk=2", space), spec::SpecError);
}

TEST(HarmonySession, MixedParameterKinds) {
  const core::ParameterSpace space(
      {core::Parameter::integer("i", 1, 9),
       core::Parameter::continuous("c", 0.0, 1.0),
       core::Parameter::discrete("d", {2.0, 4.0, 8.0})});
  EXPECT_EQ(space.param(0).kind(), core::ParamKind::kInteger);
  EXPECT_EQ(space.param(1).kind(), core::ParamKind::kContinuous);
  EXPECT_EQ(space.param(2).kind(), core::ParamKind::kDiscrete);
  harmony::Server server(core::make_strategy("pro", space), 3);
  EXPECT_TRUE(space.admissible(server.fetch(0)));
}

TEST(HarmonySession, AdaptiveSamplingServerRuns) {
  const core::ParameterSpace space({core::Parameter::integer("a", 0, 20)});
  harmony::Server server(
      core::make_strategy("pro:adaptive=1,max_k=4,refresh=1", space), 4);
  const core::QuadraticLandscape land(core::Point{9.0}, 1.0, 0.5);
  util::Rng rng(9);
  const varmodel::ParetoNoise noise(0.3, 1.7);
  for (int step = 0; step < 150; ++step) {
    std::vector<core::Point> cfgs;
    for (std::size_t r = 0; r < 4; ++r) cfgs.push_back(server.fetch(r));
    for (std::size_t r = 0; r < 4; ++r) {
      server.report(r, noise.observe(land.clean_time(cfgs[r]), rng));
    }
  }
  EXPECT_EQ(server.rounds_completed(), 150u);
}

}  // namespace
}  // namespace protuner
