// White-box tests of PRO's Algorithm 2 state machine: scripted objective
// values force each decision path (expansion accepted, expansion rejected
// after check, reflection accepted, shrink, probe escape, probe certify)
// and the tests assert the resulting simplex and counters.
//
// The landscape trick: a FunctionLandscape whose value is controlled per
// region lets us dictate which comparisons succeed without touching the
// strategy's internals.
#include <gtest/gtest.h>

#include <memory>

#include "cluster/simulated_cluster.h"
#include "core/landscape.h"
#include "core/pro.h"
#include "core/session.h"
#include "varmodel/noise_model.h"

namespace protuner::core {
namespace {

ParameterSpace line_space() {
  return ParameterSpace({Parameter::integer("x", 0, 100)});
}

cluster::SimulatedCluster machine_for(LandscapePtr land, std::size_t ranks) {
  return cluster::SimulatedCluster(
      std::move(land), std::make_shared<varmodel::NoNoise>(),
      {.ranks = ranks, .seed = 1});
}

/// Runs until the first PRO iteration resolves (or `max_steps` elapse).
void run_steps(ProStrategy& pro, StepEvaluator& m, int steps) {
  for (int i = 0; i < steps; ++i) {
    const StepProposal p = pro.propose();
    pro.observe(m.run_step(p.configs));
  }
}

TEST(ProStateMachine, MonotoneSlopeTriggersExpansions) {
  // Strictly decreasing toward x=100: every reflection wins, every
  // expansion check wins -> the simplex should travel by expansions.
  auto land = std::make_shared<FunctionLandscape>(
      "slope", [](const Point& x) { return 200.0 - x[0]; });
  auto m = machine_for(land, 4);
  ProStrategy pro(line_space(), {});
  pro.start(4);
  run_steps(pro, m, 40);
  EXPECT_GT(pro.expansions_accepted(), 0u);
  EXPECT_GT(pro.best_point()[0], 50.0);  // travelled well past the centre
}

TEST(ProStateMachine, BowlAroundCenterTriggersShrinks) {
  // The centre of the region is the optimum: reflections (which move away
  // from the best vertex) never win, so every iteration shrinks.
  auto land = std::make_shared<FunctionLandscape>(
      "bowl", [](const Point& x) {
        return 1.0 + (x[0] - 50.0) * (x[0] - 50.0);
      });
  auto m = machine_for(land, 4);
  ProStrategy pro(line_space(), {});
  pro.start(4);
  run_steps(pro, m, 30);
  EXPECT_GT(pro.shrinks_accepted(), 0u);
  EXPECT_EQ(pro.expansions_accepted(), 0u);
}

TEST(ProStateMachine, ReflectionAcceptedWhenExpansionOvershoots) {
  // A narrow valley: the reflected point (distance d) lands lower, the
  // expansion (distance 2d) overshoots into the far wall, so the expansion
  // check fails and the reflection is accepted.
  auto land = std::make_shared<FunctionLandscape>(
      "valley", [](const Point& x) {
        const double d = x[0] - 56.0;
        return 1.0 + d * d;
      });
  // Start simplex around 50 with offsets reaching ~55: reflections of the
  // low side land near 55-60 (win), expansions near 65-70 (lose).
  auto m = machine_for(land, 4);
  ProOptions opts;
  opts.initial_size = 0.1;  // b = 5 -> vertices at 45 and 55
  ProStrategy pro(line_space(), opts);
  pro.start(4);
  run_steps(pro, m, 30);
  EXPECT_GT(pro.reflections_accepted(), 0u);
}

TEST(ProStateMachine, ProbeCertifiesTrueLocalMinimum) {
  auto land = std::make_shared<FunctionLandscape>(
      "vshape", [](const Point& x) { return 1.0 + std::abs(x[0] - 50.0); });
  auto m = machine_for(land, 4);
  ProStrategy pro(line_space(), {});
  pro.start(4);
  run_steps(pro, m, 200);
  ASSERT_TRUE(pro.converged());
  EXPECT_EQ(pro.best_point()[0], 50.0);
  EXPECT_GE(pro.probes_run(), 1u);
}

TEST(ProStateMachine, ProbeEscapesFalseMinimumAndContinues) {
  // A plateau trap: the simplex collapses at the centre of a flat shelf,
  // but the probe's right neighbour is strictly better, so the search must
  // escape and eventually certify the true minimum at x = 54.
  auto land = std::make_shared<FunctionLandscape>(
      "shelf", [](const Point& x) {
        const double v = x[0];
        if (v < 50.0) return 10.0 + (50.0 - v);  // left wall
        if (v <= 54.0) return 10.0 - (v - 50.0); // downhill shelf
        return 6.0 + (v - 54.0);                 // rises after 54
      });
  auto m = machine_for(land, 4);
  ProOptions opts;
  opts.initial_size = 0.02;  // tiny simplex: collapses on the shelf fast
  ProStrategy pro(line_space(), opts);
  pro.start(4);
  run_steps(pro, m, 300);
  ASSERT_TRUE(pro.converged());
  EXPECT_EQ(pro.best_point()[0], 54.0);
  EXPECT_GE(pro.probes_run(), 1u);
}

TEST(ProStateMachine, BoundaryOptimumCertifiedWithOneSidedProbe) {
  // Optimum at the lower boundary: the probe has no lower neighbour there
  // (paper: l_i = 0 at a boundary) yet certification must still work.
  auto land = std::make_shared<FunctionLandscape>(
      "edge", [](const Point& x) { return 1.0 + x[0]; });
  auto m = machine_for(land, 4);
  ProStrategy pro(line_space(), {});
  pro.start(4);
  run_steps(pro, m, 300);
  ASSERT_TRUE(pro.converged());
  EXPECT_EQ(pro.best_point()[0], 0.0);
}

TEST(ProStateMachine, IterationsMatchAcceptCounters) {
  auto land = std::make_shared<FunctionLandscape>(
      "mix", [](const Point& x) {
        return 5.0 + 0.1 * (x[0] - 30.0) * (x[0] - 30.0) * 0.01 +
               std::abs(x[0] - 30.0);
      });
  auto m = machine_for(land, 4);
  ProStrategy pro(line_space(), {});
  pro.start(4);
  run_steps(pro, m, 100);
  EXPECT_EQ(pro.iterations(), pro.expansions_accepted() +
                                  pro.reflections_accepted() +
                                  pro.shrinks_accepted());
}

TEST(ProStateMachine, RefreshReactsToDegradedIncumbent) {
  // Mid-run we put a penalty on exactly the current incumbent
  // configuration.  With refresh_best the incumbent's estimate follows the
  // change immediately and the search moves away; with a stale estimate it
  // would keep anchoring on the (now bad) point.
  Point penalized{-1.0};
  double penalty = 0.0;
  auto land = std::make_shared<FunctionLandscape>(
      "shifting", [&](const Point& x) {
        const double base = 1.0 + std::abs(x[0] - 50.0);
        return x == penalized ? base + penalty : base;
      });
  auto m = machine_for(land, 4);
  ProOptions opts;
  opts.refresh_best = true;
  ProStrategy pro(line_space(), opts);
  pro.start(4);
  run_steps(pro, m, 8);  // partial descent: simplex still alive
  if (pro.converged()) GTEST_SKIP() << "collapsed too early to test";
  penalized = pro.best_point();
  penalty = 100.0;
  run_steps(pro, m, 12);
  EXPECT_NE(pro.best_point(), penalized);
}

TEST(ProStateMachine, ExpansionCheckEvaluatesOnlyOnePointFirst) {
  // Count landscape evaluations per step via a wrapper: during the
  // expansion-check phase the proposal contains a single active candidate
  // (padded with incumbent copies).
  auto land = std::make_shared<FunctionLandscape>(
      "slope", [](const Point& x) { return 200.0 - x[0]; });
  auto m = machine_for(land, 4);
  ProStrategy pro(line_space(), {});
  pro.start(4);
  bool saw_single_candidate_step = false;
  for (int i = 0; i < 20; ++i) {
    const StepProposal p = pro.propose();
    // Count distinct configs: an expansion-check step runs 1 candidate +
    // padding copies of the incumbent.
    std::vector<Point> uniq = p.configs;
    std::sort(uniq.begin(), uniq.end());
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
    if (uniq.size() == 2 && p.configs.size() == 4) {
      saw_single_candidate_step = true;
    }
    pro.observe(m.run_step(p.configs));
  }
  EXPECT_TRUE(saw_single_candidate_step);
}

}  // namespace
}  // namespace protuner::core
