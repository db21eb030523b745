// Tests for racing multi-sampling: clear losers stop being re-measured
// mid-round, estimates stay complete, and PRO still converges.
#include <gtest/gtest.h>

#include <memory>

#include "cluster/simulated_cluster.h"
#include "core/batch_state.h"
#include "core/landscape.h"
#include "core/pro.h"
#include "core/session.h"
#include "varmodel/pareto_noise.h"

namespace protuner::core {
namespace {

// The step's assignment, copied out of the batch.
std::vector<Point> step_assignment(const BatchState& b) {
  std::vector<Point> out(b.slots());
  b.next_assignment(out);
  return out;
}

TEST(Racing, EliminatesClearLoserAfterFirstRound) {
  BatchState::Options o;
  o.samples = 4;
  o.estimator = EstimatorKind::kMin;
  o.racing = true;  // drops candidates 10% above the leader
  BatchState b;
  b.reset(std::vector<Point>{Point{1.0}, Point{2.0}, Point{3.0}},
          /*ranks=*/3, o);

  // Round 1: point 2 is 10x worse than the leader.
  ASSERT_EQ(step_assignment(b).size(), 3u);
  b.feed(std::vector<double>{1.0, 1.05, 10.0});

  // Round 2: only the two contenders remain.
  const auto a2 = step_assignment(b);
  ASSERT_EQ(a2.size(), 2u);
  EXPECT_EQ(a2[0], Point{1.0});
  EXPECT_EQ(a2[1], Point{2.0});
  b.feed(std::vector<double>{0.9, 1.2});

  // Round 3: point 1's min (1.05 -> still within 10% of 0.9? no: 1.05 >
  // 0.9*1.1 = 0.99) -> eliminated too; only the leader races on.
  const auto a3 = step_assignment(b);
  ASSERT_EQ(a3.size(), 1u);
  EXPECT_EQ(a3[0], Point{1.0});
  b.feed(std::vector<double>{1.1});

  const auto a4 = step_assignment(b);
  ASSERT_EQ(a4.size(), 1u);
  b.feed(std::vector<double>{1.0});

  ASSERT_TRUE(b.done());
  // Estimates are the min of whatever each point collected.
  EXPECT_DOUBLE_EQ(b.estimates()[0], 0.9);
  EXPECT_DOUBLE_EQ(b.estimates()[1], 1.05);
  EXPECT_DOUBLE_EQ(b.estimates()[2], 10.0);
}

TEST(Racing, NoEliminationWhenAllClose) {
  BatchState::Options o;
  o.samples = 3;
  o.racing = true;
  BatchState b;
  b.reset(std::vector<Point>{Point{1.0}, Point{2.0}}, 2, o);
  b.feed(std::vector<double>{1.0, 1.08});
  EXPECT_EQ(step_assignment(b).size(), 2u);  // 1.08 within 10% of 1.0
  b.feed(std::vector<double>{1.1, 1.0});
  EXPECT_EQ(step_assignment(b).size(), 2u);
  b.feed(std::vector<double>{1.0, 1.1});
  EXPECT_TRUE(b.done());
}

TEST(Racing, LeaderAlwaysKeepsSampling) {
  BatchState::Options o;
  o.samples = 5;
  o.racing = true;
  BatchState b;
  b.reset(std::vector<Point>{Point{1.0}, Point{2.0}, Point{3.0}}, 3, o);
  b.feed(std::vector<double>{5.0, 4.0, 3.0});
  // Both others are over 10% above the leader's min and drop; the leader
  // stays.
  const auto a = step_assignment(b);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0], Point{3.0});
  for (int round = 1; round < 5; ++round) {
    b.feed(std::vector<double>(step_assignment(b).size(), 3.0));
  }
  EXPECT_TRUE(b.done());
}

TEST(Racing, ProWithRacingStillFindsOptimum) {
  const ParameterSpace space({Parameter::integer("a", 0, 20),
                              Parameter::integer("b", 0, 20)});
  auto land =
      std::make_shared<QuadraticLandscape>(Point{4.0, 16.0}, 1.0, 0.2);
  cluster::SimulatedCluster machine(
      land, std::make_shared<varmodel::NoNoise>(), {.ranks = 8, .seed = 1});
  ProOptions opts;
  opts.samples = 3;
  opts.racing = true;
  ProStrategy pro(space, opts);
  const SessionResult r = run_session(pro, machine, {.steps = 300});
  EXPECT_EQ(r.best, (Point{4.0, 16.0}));
}

TEST(Racing, CutsTotalTimeUnderHeavyNoiseAtEqualK) {
  // The step cost is the max over the batch; racing drops expensive losers
  // from later rounds, so Total_Time should not be worse than plain K=3
  // sampling (averaged over repetitions).
  const ParameterSpace space({Parameter::integer("a", 0, 20),
                              Parameter::integer("b", 0, 20)});
  auto land =
      std::make_shared<QuadraticLandscape>(Point{4.0, 16.0}, 2.0, 0.5);
  auto noise = std::make_shared<varmodel::ParetoNoise>(0.3, 1.7);
  double plain = 0.0, raced = 0.0;
  constexpr int kReps = 30;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto seed = static_cast<std::uint64_t>(700 + rep);
    {
      cluster::SimulatedCluster m(land, noise, {.ranks = 8, .seed = seed});
      ProOptions o;
      o.samples = 3;
      ProStrategy pro(space, o);
      plain += run_session(pro, m, {.steps = 150}).total_time;
    }
    {
      cluster::SimulatedCluster m(land, noise, {.ranks = 8, .seed = seed});
      ProOptions o;
      o.samples = 3;
      o.racing = true;
      ProStrategy pro(space, o);
      raced += run_session(pro, m, {.steps = 150}).total_time;
    }
  }
  EXPECT_LE(raced, plain * 1.02);
}

}  // namespace
}  // namespace protuner::core
