// Tests for the comparator strategies: simulated annealing, genetic
// algorithm, random search, compass search and the fixed pin.
#include <gtest/gtest.h>

#include <memory>

#include "cluster/simulated_cluster.h"
#include "core/annealing.h"
#include "core/compass.h"
#include "core/fixed.h"
#include "core/genetic.h"
#include "core/landscape.h"
#include "core/random_search.h"
#include "core/session.h"
#include "varmodel/noise_model.h"

namespace protuner::core {
namespace {

ParameterSpace int_box() {
  return ParameterSpace(
      {Parameter::integer("a", 0, 20), Parameter::integer("b", 0, 20)});
}

cluster::SimulatedCluster clean_cluster(LandscapePtr land, std::size_t ranks,
                                        std::uint64_t seed = 5) {
  return cluster::SimulatedCluster(
      std::move(land), std::make_shared<varmodel::NoNoise>(),
      {.ranks = ranks, .seed = seed});
}

TEST(Annealing, ProposalsAlwaysAdmissible) {
  const auto space = int_box();
  auto land = std::make_shared<QuadraticLandscape>(Point{3.0, 3.0}, 1.0, 0.2);
  AnnealingStrategy sa(space, {});
  sa.start(4);
  for (int i = 0; i < 100; ++i) {
    const StepProposal p = sa.propose();
    ASSERT_EQ(p.configs.size(), 4u);
    std::vector<double> times;
    for (const auto& c : p.configs) {
      ASSERT_TRUE(space.admissible(c)) << "step " << i;
      times.push_back(land->clean_time(c));
    }
    sa.observe(times);
  }
}

TEST(Annealing, EventuallyNearsOptimum) {
  const auto space = int_box();
  auto land = std::make_shared<QuadraticLandscape>(Point{8.0, 12.0}, 1.0, 0.3);
  auto machine = clean_cluster(land, 8);
  AnnealingStrategy sa(space, {});
  const SessionResult res = run_session(sa, machine, {.steps = 400});
  EXPECT_LT(res.best_clean, land->clean_time(space.center()));
}

TEST(Genetic, PopulationSizeTracksRanks) {
  const auto space = int_box();
  GeneticStrategy ga(space, 1);
  ga.start(6);
  EXPECT_EQ(ga.propose().configs.size(), 6u);
}

TEST(Genetic, ImprovesBestOverGenerations) {
  const auto space = int_box();
  auto land = std::make_shared<QuadraticLandscape>(Point{15.0, 15.0}, 1.0, 0.3);
  auto machine = clean_cluster(land, 10);
  GeneticStrategy ga(space, 1);
  const SessionResult res = run_session(ga, machine, {.steps = 200});
  EXPECT_LT(res.best_clean, 1.0 + 0.3 * 60.0);  // far better than random corner
  EXPECT_TRUE(space.admissible(res.best));
  EXPECT_EQ(ga.generations(), 200u);
}

TEST(Genetic, ChildrenAlwaysAdmissible) {
  const auto space = int_box();
  auto land = std::make_shared<QuadraticLandscape>(Point{5.0, 5.0}, 1.0, 0.2);
  GeneticStrategy ga(space, 1);
  ga.start(8);
  for (int g = 0; g < 50; ++g) {
    const StepProposal p = ga.propose();
    std::vector<double> times;
    for (const auto& c : p.configs) {
      ASSERT_TRUE(space.admissible(c)) << "generation " << g;
      times.push_back(land->clean_time(c));
    }
    ga.observe(times);
  }
}

TEST(Baselines, AnnealAndGeneticProposalsAdmissibleOnMixedSpace) {
  // Annealing and genetic moves carry no projection: discrete axes step
  // between admissible values and continuous axes are clamped.  Over whole
  // seeded sessions on a mixed space, with the optimum on the continuous
  // upper bound so the clamp fires, every proposal must stay admissible.
  const ParameterSpace space({
      Parameter::integer("i", 0, 15),
      Parameter::continuous("c", -1.0, 1.0),
      Parameter::discrete("d", {1.0, 2.0, 4.0, 8.0, 16.0}),
  });
  const QuadraticLandscape land(Point{14.0, 1.0, 16.0}, 1.0, 0.3);
  std::size_t on_bound = 0;
  const auto drive = [&](TuningStrategy& s, std::size_t ranks,
                         std::uint64_t seed) {
    util::Rng noise(seed);
    s.start(ranks);
    std::vector<Point> configs;
    std::vector<double> times;
    for (int step = 0; step < 150; ++step) {
      s.propose_into(configs);
      ASSERT_EQ(configs.size(), ranks);
      times.clear();
      for (const Point& c : configs) {
        ASSERT_TRUE(space.admissible(c))
            << s.name() << " seed " << seed << " step " << step;
        on_bound += c[1] == space.param(1).upper();
        times.push_back(land.clean_time(c) * (1.0 + 0.3 * noise.uniform()));
      }
      s.observe(times);
    }
  };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const std::size_t ranks : {std::size_t{1}, std::size_t{7},
                                    std::size_t{32}}) {
      AnnealingStrategy sa(space, {.migrate_every = seed % 2 == 0 ? 10u : 0u,
                                   .seed = seed});
      drive(sa, ranks, seed);
      GeneticStrategy ga(space, seed);
      drive(ga, ranks, seed);
    }
  }
  EXPECT_GT(on_bound, 0u) << "no proposal was clamped onto the bound";
}

TEST(RandomSearch, BestValueMonotone) {
  const auto space = int_box();
  auto land = std::make_shared<QuadraticLandscape>(Point{2.0, 18.0}, 1.0, 0.4);
  RandomSearchStrategy rs(space, 77);
  rs.start(4);
  double prev_best = 1e300;
  for (int i = 0; i < 100; ++i) {
    const StepProposal p = rs.propose();
    std::vector<double> times;
    for (const auto& c : p.configs) times.push_back(land->clean_time(c));
    rs.observe(times);
    EXPECT_LE(rs.best_estimate(), prev_best);
    prev_best = rs.best_estimate();
  }
}

TEST(Compass, ConvergesOnQuadratic) {
  const auto space = int_box();
  auto land = std::make_shared<QuadraticLandscape>(Point{6.0, 14.0}, 1.0, 0.3);
  auto machine = clean_cluster(land, 8);
  CompassStrategy cs(space);
  const SessionResult res = run_session(cs, machine, {.steps = 300});
  EXPECT_EQ(res.best, (Point{6.0, 14.0}));
  EXPECT_TRUE(cs.converged());
}

TEST(Compass, FreezesAfterConvergence) {
  const auto space = int_box();
  auto land = std::make_shared<QuadraticLandscape>(Point{6.0, 6.0}, 1.0, 0.3);
  auto machine = clean_cluster(land, 8);
  CompassStrategy cs(space);
  (void)run_session(cs, machine, {.steps = 400});
  ASSERT_TRUE(cs.converged());
  const StepProposal p = cs.propose();
  EXPECT_EQ(p.configs.size(), 8u);  // all ranks run the incumbent
  for (const auto& c : p.configs) EXPECT_EQ(c, (Point{6.0, 6.0}));
}

TEST(Fixed, AlwaysProposesSameConfigOnAllRanks) {
  FixedStrategy fx(Point{3.0, 4.0});
  fx.start(5);
  const StepProposal p = fx.propose();
  ASSERT_EQ(p.configs.size(), 5u);
  for (const auto& c : p.configs) EXPECT_EQ(c, (Point{3.0, 4.0}));
  EXPECT_TRUE(fx.converged());
}

}  // namespace
}  // namespace protuner::core
