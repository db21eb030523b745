// Integration tests: the thread-based SPMD substrate and the Harmony-style
// client/server tuning protocol driven by real concurrent ranks.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "comm/spmd.h"
#include "core/landscape.h"
#include "core/pro.h"
#include "harmony/server.h"

namespace protuner {
namespace {

TEST(Spmd, AllRanksRun) {
  std::atomic<int> count{0};
  comm::spmd_run(4, [&](comm::Communicator& c) {
    EXPECT_EQ(c.size(), 4u);
    EXPECT_LT(c.rank(), 4u);
    ++count;
  });
  EXPECT_EQ(count.load(), 4);
}

TEST(Spmd, AllreduceMax) {
  std::vector<double> results(5, 0.0);
  comm::spmd_run(5, [&](comm::Communicator& c) {
    results[c.rank()] =
        c.allreduce_max(static_cast<double>(c.rank()) * 1.5);
  });
  for (double r : results) EXPECT_DOUBLE_EQ(r, 6.0);
}

TEST(Spmd, RepeatedCollectivesDoNotInterfere) {
  comm::spmd_run(3, [&](comm::Communicator& c) {
    for (int i = 0; i < 50; ++i) {
      const double m = c.allreduce_max(static_cast<double>(c.rank() + i));
      EXPECT_DOUBLE_EQ(m, static_cast<double>(2 + i));
    }
  });
}

TEST(Spmd, SingleRankWorld) {
  comm::spmd_run(1, [&](comm::Communicator& c) {
    EXPECT_DOUBLE_EQ(c.allreduce_max(3.0), 3.0);
  });
}

// ------------------------------------------------------------------ harmony

core::ParameterSpace int_box() {
  return core::ParameterSpace({core::Parameter::integer("a", 0, 20),
                               core::Parameter::integer("b", 0, 20)});
}

TEST(Harmony, SequentialClientLoopTunes) {
  const auto space = int_box();
  const core::QuadraticLandscape land(core::Point{5.0, 15.0}, 1.0, 0.2);
  harmony::Server server(
      std::make_unique<core::ProStrategy>(space, core::ProOptions{}), 4);
  // Drive all 4 "ranks" from one thread: fetch all, then report all.
  for (int step = 0; step < 150; ++step) {
    std::vector<core::Point> cfgs;
    for (std::size_t r = 0; r < 4; ++r) cfgs.push_back(server.fetch(r));
    for (std::size_t r = 0; r < 4; ++r) {
      server.report(r, land.clean_time(cfgs[r]));
    }
  }
  EXPECT_EQ(server.rounds_completed(), 150u);
  EXPECT_EQ(server.best_point(), (core::Point{5.0, 15.0}));
  EXPECT_GT(server.total_time(), 0.0);
  EXPECT_EQ(server.step_costs().size(), 150u);
}

TEST(Harmony, ConcurrentRanksReachSameResult) {
  const auto space = int_box();
  const core::QuadraticLandscape land(core::Point{8.0, 2.0}, 1.0, 0.2);
  harmony::Server server(
      std::make_unique<core::ProStrategy>(space, core::ProOptions{}), 6);
  comm::spmd_run(6, [&](comm::Communicator& c) {
    harmony::Client client(server, c.rank());
    for (int step = 0; step < 120; ++step) {
      const core::Point cfg = client.fetch();
      client.report(land.clean_time(cfg));
    }
  });
  EXPECT_EQ(server.rounds_completed(), 120u);
  EXPECT_EQ(server.best_point(), (core::Point{8.0, 2.0}));
  EXPECT_TRUE(server.converged());
}

TEST(Harmony, StepCostIsMaxAcrossRanks) {
  // One round with a known per-rank cost pattern.
  const auto space = int_box();
  harmony::Server server(
      std::make_unique<core::ProStrategy>(space, core::ProOptions{}), 3);
  std::vector<core::Point> cfgs;
  for (std::size_t r = 0; r < 3; ++r) cfgs.push_back(server.fetch(r));
  server.report(0, 1.0);
  server.report(1, 9.0);
  server.report(2, 3.0);
  ASSERT_EQ(server.step_costs().size(), 1u);
  EXPECT_DOUBLE_EQ(server.step_costs()[0], 9.0);
  EXPECT_DOUBLE_EQ(server.total_time(), 9.0);
}

TEST(Harmony, PadsIdleRanksWithBestConfig) {
  // PRO's expansion-check round proposes a single point; the other ranks
  // must still receive a configuration to run.
  const auto space = int_box();
  const core::QuadraticLandscape land(core::Point{5.0, 5.0}, 1.0, 0.2);
  harmony::Server server(
      std::make_unique<core::ProStrategy>(space, core::ProOptions{}), 8);
  for (int step = 0; step < 60; ++step) {
    std::vector<core::Point> cfgs;
    for (std::size_t r = 0; r < 8; ++r) {
      cfgs.push_back(server.fetch(r));
      EXPECT_TRUE(space.admissible(cfgs.back()));
    }
    for (std::size_t r = 0; r < 8; ++r) {
      server.report(r, land.clean_time(cfgs[r]));
    }
  }
  EXPECT_EQ(server.rounds_completed(), 60u);
}

}  // namespace
}  // namespace protuner
