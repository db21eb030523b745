// Tests for session observers, the trace-driven cluster, composite noise
// and bootstrap confidence intervals.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "cluster/simulated_cluster.h"
#include "cluster/trace_cluster.h"
#include "core/fixed.h"
#include "core/landscape.h"
#include "core/pro.h"
#include "core/session.h"
#include "core/session_log.h"
#include "gs2/trace.h"
#include "stats/bootstrap.h"
#include "stats/pareto.h"
#include "varmodel/composite_noise.h"
#include "varmodel/pareto_noise.h"
#include "varmodel/simple_noise.h"

namespace protuner {
namespace {

core::LandscapePtr flat(double v) {
  return std::make_shared<core::FunctionLandscape>(
      "flat", [v](const core::Point&) { return v; });
}

// ---------------------------------------------------------------- observers

TEST(SessionObserver, OnStepSeesEveryStep) {
  class Counter final : public core::SessionObserver {
   public:
    void on_step(std::size_t, std::span<const core::Point> configs,
                 std::span<const double> times, double cost) override {
      ++steps;
      EXPECT_EQ(configs.size(), times.size());
      EXPECT_GT(cost, 0.0);
    }
    int steps = 0;
  } counter;

  auto land = flat(2.0);
  cluster::SimulatedCluster machine(land,
                                    std::make_shared<varmodel::NoNoise>(),
                                    {.ranks = 3, .seed = 1});
  core::FixedStrategy fx(core::Point{0.0});
  core::SessionOptions so;
  so.steps = 25;
  so.observer = &counter;
  (void)core::run_session(fx, machine, so);
  EXPECT_EQ(counter.steps, 25);
}

TEST(SessionObserver, OnConvergedFiresOnce) {
  class Watcher final : public core::SessionObserver {
   public:
    void on_converged(std::size_t step, const core::Point&) override {
      ++fires;
      at = step;
    }
    int fires = 0;
    std::size_t at = 0;
  } watcher;

  const core::ParameterSpace space(
      {core::Parameter::integer("a", 0, 10)});
  auto land = std::make_shared<core::QuadraticLandscape>(core::Point{4.0},
                                                         1.0, 0.5);
  cluster::SimulatedCluster machine(land,
                                    std::make_shared<varmodel::NoNoise>(),
                                    {.ranks = 4, .seed = 2});
  core::ProStrategy pro(space, {});
  core::SessionOptions so;
  so.steps = 200;
  so.observer = &watcher;
  const auto r = core::run_session(pro, machine, so);
  ASSERT_TRUE(r.convergence_step.has_value());
  EXPECT_EQ(watcher.fires, 1);
  EXPECT_EQ(watcher.at, *r.convergence_step);
}

TEST(CsvSessionLogger, ProducesHeaderAndRows) {
  std::ostringstream out;
  core::CsvSessionLogger logger(out);
  auto land = flat(1.5);
  cluster::SimulatedCluster machine(land,
                                    std::make_shared<varmodel::NoNoise>(),
                                    {.ranks = 2, .seed = 3});
  core::FixedStrategy fx(core::Point{0.0});
  core::SessionOptions so;
  so.steps = 5;
  so.observer = &logger;
  (void)core::run_session(fx, machine, so);
  const std::string text = out.str();
  EXPECT_NE(text.find("step,cost,cumulative,distinct_configs"),
            std::string::npos);
  // Header + 5 rows = 6 lines.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 6);
  EXPECT_NEAR(logger.cumulative(), 7.5, 1e-9);
}

// -------------------------------------------------------------- TraceCluster

TEST(TraceCluster, TimesAtLeastCleanMinusJitterFloor) {
  auto land = flat(3.0);
  cluster::TraceClusterConfig cfg;
  cfg.ranks = 4;
  cluster::TraceCluster machine(land, cfg);
  for (int s = 0; s < 50; ++s) {
    const auto t = machine.run_step(
        std::vector<core::Point>(4, core::Point{0.0}));
    for (double x : t) EXPECT_GE(x, 3.0);
  }
  EXPECT_EQ(machine.steps_run(), 50u);
}

TEST(TraceCluster, SharedShocksHitAllRanksTogether) {
  auto land = flat(1.0);
  cluster::TraceClusterConfig cfg;
  cfg.ranks = 4;
  cfg.shocks.big_prob = 0.2;
  cfg.shocks.small_prob = 0.0;
  cfg.shocks.jitter_cv = 0.0;
  cluster::TraceCluster machine(land, cfg);
  int together = 0, spiky_steps = 0;
  for (int s = 0; s < 2000; ++s) {
    const auto t = machine.run_step(
        std::vector<core::Point>(4, core::Point{0.0}));
    int spiked = 0;
    for (double x : t) spiked += (x > 2.0);
    if (spiked > 0) {
      ++spiky_steps;
      together += (spiked == 4);
    }
  }
  ASSERT_GT(spiky_steps, 100);
  EXPECT_GT(static_cast<double>(together) / spiky_steps, 0.9);
}

TEST(TraceCluster, ProStillTunesUnderCorrelatedNoise) {
  const core::ParameterSpace space({
      core::Parameter::integer("a", 0, 20),
      core::Parameter::integer("b", 0, 20),
  });
  auto land = std::make_shared<core::QuadraticLandscape>(
      core::Point{15.0, 5.0}, 1.0, 0.3);
  cluster::TraceClusterConfig cfg;
  cfg.ranks = 8;
  cluster::TraceCluster machine(land, cfg);
  core::ProStrategy pro(space, {});
  const auto r = core::run_session(pro, machine, {.steps = 300});
  EXPECT_LT(r.best_clean, land->clean_time(space.center()));
}

// ------------------------------------------------------------ CompositeNoise

TEST(CompositeNoise, SumsComponents) {
  auto a = std::make_shared<varmodel::ParetoNoise>(0.1, 1.7);
  auto b = std::make_shared<varmodel::ExponentialNoise>(0.1);
  const varmodel::CompositeNoise c(a, b);
  EXPECT_NEAR(c.expected(6.0), a->expected(6.0) + b->expected(6.0), 1e-12);
  EXPECT_NEAR(c.n_min(6.0), a->n_min(6.0), 1e-12);  // b's floor is 0
  EXPECT_TRUE(c.heavy_tailed());

  util::Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GE(c.sample(6.0, rng), c.n_min(6.0) - 1e-12);
  }
}

TEST(CompositeNoise, RhoConsistentWithEq7) {
  auto a = std::make_shared<varmodel::ExponentialNoise>(0.2);
  auto b = std::make_shared<varmodel::ExponentialNoise>(0.1);
  const varmodel::CompositeNoise c(a, b);
  // E[n] at f=1: 0.25 + 0.111 = 0.361; rho = 0.361/1.361.
  EXPECT_NEAR(c.rho(), 0.361 / 1.361, 2e-3);
}

// ----------------------------------------------------------------- bootstrap

TEST(Bootstrap, MeanCiCoversTruthForNormalData) {
  util::Rng data_rng(6);
  std::vector<double> xs(500);
  for (auto& x : xs) x = data_rng.normal(10.0, 2.0);
  util::Rng boot_rng(7);
  const auto ci = stats::bootstrap_mean_ci(xs, 0.95, 500, boot_rng);
  EXPECT_GT(ci.hi, ci.lo);
  EXPECT_LE(ci.lo, 10.3);
  EXPECT_GE(ci.hi, 9.7);
  EXPECT_NEAR(ci.point, 10.0, 0.3);
}

TEST(Bootstrap, MedianCiNarrowerThanRangeUnderHeavyTails) {
  const stats::Pareto p(1.2, 1.0);
  util::Rng data_rng(8);
  std::vector<double> xs(1000);
  for (auto& x : xs) x = p.sample(data_rng);
  util::Rng boot_rng(9);
  const auto ci = stats::bootstrap_median_ci(xs, 0.95, 400, boot_rng);
  // Median of Pareto(1.2,1) = 2^{1/1.2} ~ 1.78.
  EXPECT_NEAR(ci.point, 1.78, 0.2);
  EXPECT_LT(ci.hi - ci.lo, 0.5);
}

TEST(Bootstrap, DeterministicGivenRngState) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  util::Rng r1(10), r2(10);
  const auto a = stats::bootstrap_mean_ci(xs, 0.9, 200, r1);
  const auto b = stats::bootstrap_mean_ci(xs, 0.9, 200, r2);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
}

}  // namespace
}  // namespace protuner
