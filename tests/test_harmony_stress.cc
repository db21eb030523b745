// Stress tests for the Harmony server under adversarial client timing:
// uneven per-rank delays, noisy measurements, many rounds, and different
// strategy types behind the same protocol.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "comm/spmd.h"
#include "core/annealing.h"
#include "core/genetic.h"
#include "core/landscape.h"
#include "core/pro.h"
#include "harmony/server.h"
#include "util/rng.h"
#include "varmodel/pareto_noise.h"

namespace protuner {
namespace {

core::ParameterSpace int_box() {
  return core::ParameterSpace({core::Parameter::integer("a", 0, 20),
                               core::Parameter::integer("b", 0, 20)});
}

TEST(HarmonyStress, UnevenClientTimingKeepsRoundsConsistent) {
  const auto space = int_box();
  const core::QuadraticLandscape land(core::Point{5.0, 5.0}, 1.0, 0.2);
  harmony::Server server(
      std::make_unique<core::ProStrategy>(space, core::ProOptions{}), 6);

  comm::spmd_run(6, [&](comm::Communicator& c) {
    harmony::Client client(server, c.rank());
    util::Rng rng(100 + c.rank());
    for (int step = 0; step < 120; ++step) {
      const core::Point cfg = client.fetch();
      // Stagger the ranks: some report immediately, some lag.
      if (rng.bernoulli(0.3)) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            rng.uniform_int(1, 200)));
      }
      client.report(land.clean_time(cfg));
    }
  });
  EXPECT_EQ(server.rounds_completed(), 120u);
  EXPECT_EQ(server.step_costs().size(), 120u);
  EXPECT_EQ(server.best_point(), (core::Point{5.0, 5.0}));
}

TEST(HarmonyStress, NoisyMeasurementsDoNotBreakProtocol) {
  const auto space = int_box();
  const core::QuadraticLandscape land(core::Point{12.0, 8.0}, 1.0, 0.3);
  const varmodel::ParetoNoise noise(0.3, 1.7);
  core::ProOptions opts;
  opts.samples = 2;
  harmony::Server server(std::make_unique<core::ProStrategy>(space, opts),
                         4);

  comm::spmd_run(4, [&](comm::Communicator& c) {
    harmony::Client client(server, c.rank());
    util::Rng rng(500 + c.rank());
    for (int step = 0; step < 200; ++step) {
      const core::Point cfg = client.fetch();
      client.report(noise.observe(land.clean_time(cfg), rng));
    }
  });
  EXPECT_EQ(server.rounds_completed(), 200u);
  // With noise the exact optimum isn't guaranteed, but the result must be
  // admissible and the accounting positive and finite.
  EXPECT_TRUE(space.admissible(server.best_point()));
  EXPECT_GT(server.total_time(), 0.0);
}

TEST(HarmonyStress, RandomizedStrategiesBehindTheServer) {
  const auto space = int_box();
  const core::QuadraticLandscape land(core::Point{3.0, 17.0}, 1.0, 0.2);
  for (int which = 0; which < 2; ++which) {
    core::TuningStrategyPtr strategy;
    if (which == 0) {
      core::AnnealingOptions o;
      o.seed = 9;
      strategy = std::make_unique<core::AnnealingStrategy>(space, o);
    } else {
      strategy = std::make_unique<core::GeneticStrategy>(space, 9);
    }
    harmony::Server server(std::move(strategy), 5);
    comm::spmd_run(5, [&](comm::Communicator& c) {
      harmony::Client client(server, c.rank());
      for (int step = 0; step < 80; ++step) {
        const core::Point cfg = client.fetch();
        EXPECT_TRUE(space.admissible(cfg));
        client.report(land.clean_time(cfg));
      }
    });
    EXPECT_EQ(server.rounds_completed(), 80u);
    EXPECT_LT(land.clean_time(server.best_point()),
              land.clean_time(space.center()));
  }
}

TEST(HarmonyStress, LongSessionManyRounds) {
  const auto space = int_box();
  const core::QuadraticLandscape land(core::Point{10.0, 10.0}, 1.0, 0.5);
  harmony::Server server(
      std::make_unique<core::ProStrategy>(space, core::ProOptions{}), 3);
  comm::spmd_run(3, [&](comm::Communicator& c) {
    harmony::Client client(server, c.rank());
    for (int step = 0; step < 1000; ++step) {
      client.report(land.clean_time(client.fetch()));
    }
  });
  EXPECT_EQ(server.rounds_completed(), 1000u);
  EXPECT_TRUE(server.converged());
  // Step costs accumulate exactly.
  double sum = 0.0;
  for (double c : server.step_costs()) sum += c;
  EXPECT_NEAR(sum, server.total_time(), 1e-9);
}

}  // namespace
}  // namespace protuner
