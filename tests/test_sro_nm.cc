// Tests for the sequential strategies: SRO (Algorithm 1) and the
// Nelder-Mead baseline, including the sequential-vs-parallel contrast the
// paper draws.
#include <gtest/gtest.h>

#include <memory>

#include "cluster/simulated_cluster.h"
#include "core/landscape.h"
#include "core/nelder_mead.h"
#include "core/pro.h"
#include "core/session.h"
#include "core/sro.h"
#include "varmodel/noise_model.h"

namespace protuner::core {
namespace {

ParameterSpace int_box() {
  return ParameterSpace(
      {Parameter::integer("a", 0, 20), Parameter::integer("b", 0, 20)});
}

cluster::SimulatedCluster clean_cluster(LandscapePtr land, std::size_t ranks) {
  return cluster::SimulatedCluster(
      std::move(land), std::make_shared<varmodel::NoNoise>(),
      {.ranks = ranks, .seed = 3});
}

TEST(Sro, FindsQuadraticMinimum) {
  const auto space = int_box();
  auto land = std::make_shared<QuadraticLandscape>(Point{7.0, 13.0}, 1.0, 0.2);
  auto machine = clean_cluster(land, 1);
  SroStrategy sro(space);
  const SessionResult res = run_session(sro, machine, {.steps = 600});
  EXPECT_EQ(res.best, (Point{7.0, 13.0}));
}

TEST(Sro, OneNewEvaluationPerStepRestPadded) {
  // SRO is sequential: one *new* point per step; the remaining ranks are
  // padded with the incumbent so the step cost stays a max over all ranks.
  const auto space = int_box();
  auto land = std::make_shared<QuadraticLandscape>(Point{5.0, 5.0}, 1.0, 0.2);
  SroStrategy sro(space);
  sro.start(8);
  for (int i = 0; i < 50; ++i) {
    const StepProposal p = sro.propose();
    ASSERT_EQ(p.configs.size(), 8u);
    // All padded slots carry the same (incumbent) configuration.
    for (std::size_t r = 2; r < 8; ++r) EXPECT_EQ(p.configs[r], p.configs[1]);
    std::vector<double> times;
    for (const auto& c : p.configs) times.push_back(land->clean_time(c));
    sro.observe(times);
  }
}

TEST(Sro, SlowerThanProPerTimeStepBudget) {
  // The parallelism claim (§3.2): with the same step budget and n ranks,
  // PRO reaches a no-worse configuration than SRO.
  const auto space = int_box();
  auto land = std::make_shared<MultimodalLandscape>(Point{16.0, 4.0}, 1.0,
                                                    0.3, 0.2);
  auto m_pro = clean_cluster(land, 8);
  auto m_sro = clean_cluster(land, 8);
  ProStrategy pro(space, {});
  SroStrategy sro(space);
  const SessionResult r_pro = run_session(pro, m_pro, {.steps = 60});
  const SessionResult r_sro = run_session(sro, m_sro, {.steps = 60});
  EXPECT_LE(r_pro.best_clean, r_sro.best_clean + 1e-9);
}

TEST(Sro, ConvergesAndFreezes) {
  const auto space = int_box();
  auto land = std::make_shared<QuadraticLandscape>(Point{4.0, 4.0}, 1.0, 0.5);
  auto machine = clean_cluster(land, 1);
  SroStrategy sro(space);
  const SessionResult res = run_session(sro, machine, {.steps = 900});
  EXPECT_TRUE(res.convergence_step.has_value());
  const StepProposal p = sro.propose();
  EXPECT_EQ(p.configs[0], res.best);
}

TEST(NelderMead, FindsQuadraticMinimumOnContinuousBox) {
  const ParameterSpace space({Parameter::continuous("x", -5.0, 5.0),
                              Parameter::continuous("y", -5.0, 5.0)});
  auto land = std::make_shared<QuadraticLandscape>(Point{1.5, -2.0}, 1.0, 1.0);
  auto machine = clean_cluster(land, 1);
  NelderMeadStrategy nm(space, {});
  const SessionResult res = run_session(nm, machine, {.steps = 400});
  EXPECT_NEAR(res.best[0], 1.5, 0.2);
  EXPECT_NEAR(res.best[1], -2.0, 0.2);
}

TEST(NelderMead, SequentialOneNewEvalPerStep) {
  const auto space = int_box();
  auto land = std::make_shared<QuadraticLandscape>(Point{5.0, 5.0}, 1.0, 0.2);
  NelderMeadStrategy nm(space, {});
  nm.start(8);
  for (int i = 0; i < 30; ++i) {
    const StepProposal p = nm.propose();
    ASSERT_EQ(p.configs.size(), 8u);
    for (std::size_t r = 2; r < 8; ++r) EXPECT_EQ(p.configs[r], p.configs[1]);
    std::vector<double> times;
    for (const auto& c : p.configs) times.push_back(land->clean_time(c));
    nm.observe(times);
  }
}

TEST(NelderMead, IterationCapFreezes) {
  const auto space = int_box();
  auto land = std::make_shared<QuadraticLandscape>(Point{5.0, 5.0}, 1.0, 0.2);
  auto machine = clean_cluster(land, 1);
  NelderMeadOptions opts;
  opts.max_iterations = 10;
  NelderMeadStrategy nm(space, opts);
  const SessionResult res = run_session(nm, machine, {.steps = 300});
  EXPECT_TRUE(nm.converged());
  EXPECT_TRUE(res.convergence_step.has_value());
  EXPECT_LE(nm.iterations(), 10u);
}

TEST(NelderMead, ImprovesOverCenterOnGs2LikeIntegerSpace) {
  const auto space = int_box();
  auto land = std::make_shared<MultimodalLandscape>(Point{15.0, 5.0}, 1.0,
                                                    0.2, 0.15);
  auto machine = clean_cluster(land, 1);
  NelderMeadStrategy nm(space, {});
  const SessionResult res = run_session(nm, machine, {.steps = 400});
  EXPECT_LE(res.best_clean, land->clean_time(space.center()) + 1e-12);
}

}  // namespace
}  // namespace protuner::core
