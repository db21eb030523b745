// Tests for the multi-session Harmony front end: SessionManager registry
// semantics, concurrent multi-session serving, protocol violations as hard
// errors, deadline-driven straggler handling and rank re-entry.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/simulated_cluster.h"
#include "core/fixed.h"
#include "core/landscape.h"
#include "core/pro.h"
#include "core/session.h"
#include "core/session_log.h"
#include "exp/parallel_runner.h"
#include "harmony/session_manager.h"
#include "varmodel/noise_model.h"

namespace protuner {
namespace {

using core::Point;
using harmony::ProtocolError;
using harmony::Server;
using harmony::ServerOptions;
using harmony::SessionError;
using harmony::SessionManager;
using harmony::StragglerPolicy;

std::unique_ptr<core::FixedStrategy> fixed(double v) {
  return std::make_unique<core::FixedStrategy>(Point{v});
}

ServerOptions deadline_options(double seconds, StragglerPolicy policy) {
  ServerOptions o;
  o.report_timeout = std::chrono::duration<double>(seconds);
  o.straggler_policy = policy;
  return o;
}

/// Drives every rank of `server` through `rounds` complete rounds from one
/// thread; each rank reports rank + 1.
void drive_rounds(Server& server, std::size_t clients, std::size_t rounds) {
  for (std::size_t k = 0; k < rounds; ++k) {
    for (std::size_t r = 0; r < clients; ++r) (void)server.fetch(r);
    for (std::size_t r = 0; r < clients; ++r) {
      server.report(r, static_cast<double>(r) + 1.0);
    }
  }
}

// ------------------------------------------------------ registry lifecycle

TEST(SessionManager, CreateAttachDetachRemoveLifecycle) {
  SessionManager manager;
  EXPECT_EQ(manager.size(), 0u);
  EXPECT_EQ(manager.find("a"), nullptr);

  const auto a = manager.create("a", fixed(1.0), 2);
  const auto b = manager.create("b", fixed(2.0), 3);
  EXPECT_EQ(manager.size(), 2u);
  EXPECT_EQ(manager.names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(manager.find("a").get(), a.get());

  EXPECT_THROW((void)manager.create("a", fixed(3.0), 1), SessionError);

  const auto a2 = manager.attach("a");
  EXPECT_EQ(a2.get(), a.get());
  EXPECT_EQ(manager.stats("a").attached, 1u);
  EXPECT_THROW((void)manager.attach("zzz"), SessionError);

  EXPECT_THROW((void)manager.remove("a"), SessionError);  // still attached
  manager.detach("a");
  EXPECT_THROW(manager.detach("a"), SessionError);  // nothing outstanding
  EXPECT_THROW(manager.detach("zzz"), SessionError);

  EXPECT_TRUE(manager.remove("a"));
  EXPECT_FALSE(manager.remove("a"));  // already gone
  EXPECT_EQ(manager.size(), 1u);

  // A removed session keeps working for holders of the shared_ptr.
  drive_rounds(*a, 2, 1);
  EXPECT_EQ(a->rounds_completed(), 1u);

  // names() and stats_all() come back name-sorted whatever the creation
  // order.
  constexpr int kMany = 40;
  for (int i = kMany - 1; i >= 0; --i) {
    const std::string name = "s" + std::string(i < 10 ? "0" : "") +
                             std::to_string(i);
    manager.create(name, fixed(1.0), 1);
  }
  EXPECT_EQ(manager.size(), static_cast<std::size_t>(kMany) + 1);
  const auto names = manager.names();
  ASSERT_EQ(names.size(), manager.size());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(names.front(), "b");
  EXPECT_EQ(names[1], "s00");
  EXPECT_EQ(names.back(), "s39");
  const auto all = manager.stats_all();
  ASSERT_EQ(all.size(), names.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].name, names[i]);
  }
}

TEST(SessionManager, StatsSnapshotLiveAccounting) {
  SessionManager manager;
  const auto s = manager.create("gs2", fixed(5.0), 4);
  drive_rounds(*s, 4, 10);

  const SessionManager::SessionStats stats = manager.stats("gs2");
  EXPECT_EQ(stats.name, "gs2");
  EXPECT_EQ(stats.strategy, "Fixed");
  EXPECT_EQ(stats.clients, 4u);
  EXPECT_EQ(stats.active_ranks, 4u);
  EXPECT_EQ(stats.attached, 0u);
  EXPECT_EQ(stats.rounds, 10u);
  EXPECT_DOUBLE_EQ(stats.total_time, 40.0);  // T_k = 4 (slowest rank)
  EXPECT_TRUE(stats.converged);              // FixedStrategy: always
  EXPECT_EQ(stats.best, (Point{5.0}));

  EXPECT_THROW((void)manager.stats("zzz"), SessionError);
  EXPECT_EQ(manager.stats_all().size(), 1u);
}

// ------------------------------------------------- concurrent multi-session

TEST(SessionManager, HostsManyConcurrentSessions) {
  // >= 4 concurrent sessions, each driven by its own set of client threads
  // (REPRO_THREADS-scaled), while the main thread polls stats snapshots.
  constexpr std::size_t kSessions = 4;
  constexpr std::size_t kRounds = 60;
  const std::size_t clients =
      std::max<std::size_t>(2, std::min<std::size_t>(4,
          static_cast<std::size_t>(exp::default_threads())));

  SessionManager manager;
  const core::ParameterSpace space(
      {core::Parameter::integer("i", 0, 15)});
  for (std::size_t s = 0; s < kSessions; ++s) {
    if (s % 2 == 0) {
      manager.create("s" + std::to_string(s), fixed(1.0), clients);
    } else {
      manager.create("s" + std::to_string(s),
                     std::make_unique<core::ProStrategy>(space,
                                                         core::ProOptions{}),
                     clients);
    }
  }

  {
    std::vector<std::jthread> workers;
    for (std::size_t s = 0; s < kSessions; ++s) {
      const std::string name = "s" + std::to_string(s);
      for (std::size_t r = 0; r < clients; ++r) {
        workers.emplace_back([&manager, name, r] {
          const auto server = manager.attach(name);
          for (std::size_t k = 0; k < kRounds; ++k) {
            const Point cfg = server->fetch(r);
            server->report(r, 1.0 + 0.1 * static_cast<double>(cfg[0]));
          }
          manager.detach(name);
        });
      }
    }
    for (int polls = 0; polls < 20; ++polls) {
      (void)manager.stats_all();
      std::this_thread::yield();
    }
  }

  for (std::size_t s = 0; s < kSessions; ++s) {
    const auto stats = manager.stats("s" + std::to_string(s));
    EXPECT_EQ(stats.rounds, kRounds);
    EXPECT_EQ(stats.attached, 0u);
    EXPECT_EQ(stats.active_ranks, clients);
    EXPECT_GT(stats.total_time, 0.0);
    EXPECT_TRUE(manager.remove("s" + std::to_string(s)));
  }
  EXPECT_EQ(manager.size(), 0u);
}

// ------------------------------------------------------ protocol violations

TEST(Server, ProtocolViolationsAreHardErrors) {
  Server server(fixed(1.0), 2);
  EXPECT_THROW((void)server.fetch(2), ProtocolError);       // out of range
  EXPECT_THROW(server.report(7, 1.0), ProtocolError);       // out of range
  EXPECT_THROW(server.report(0, 1.0), ProtocolError);       // never fetched

  (void)server.fetch(0);
  EXPECT_THROW((void)server.fetch(0), ProtocolError);       // double fetch
  // NaN, infinite and negative times are rejected and change no state:
  // the fetch stays outstanding and Total_Time stays monotone.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -1.0}) {
    EXPECT_THROW(server.report(0, bad), ProtocolError) << bad;
  }
  server.report(0, 1.0);
  EXPECT_THROW(server.report(0, 1.0), ProtocolError);       // double report
  (void)server.fetch(1);
  EXPECT_THROW(server.report(1, -3.0), ProtocolError);
  server.report(1, 2.0);
  EXPECT_EQ(server.rounds_completed(), 1u);
  EXPECT_DOUBLE_EQ(server.total_time(), 2.0);
}

TEST(Server, RejectsNullStrategyAndZeroClients) {
  EXPECT_THROW(Server(nullptr, 2), std::invalid_argument);
  EXPECT_THROW(Server(fixed(1.0), 0), std::invalid_argument);
}

// ------------------------------------------------------ deadline / stragglers

TEST(Server, DeadlineImputesStragglerAndShrinksSession) {
  Server server(fixed(1.0), 4,
                deadline_options(0.05, StragglerPolicy::kShrink));
  for (std::size_t r = 0; r < 4; ++r) (void)server.fetch(r);
  for (std::size_t r = 0; r < 3; ++r) {
    server.report(r, static_cast<double>(r) + 1.0);  // 1, 2, 3
  }
  // Rank 3 dies mid-round.  The deadline closes the round with its time
  // imputed as max-of-observed (3.0) × penalty (1.5) = 4.5.
  while (!server.tick()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.rounds_completed(), 1u);
  ASSERT_EQ(server.step_costs().size(), 1u);
  EXPECT_DOUBLE_EQ(server.step_costs()[0], 4.5);
  EXPECT_EQ(server.active_ranks(), 3u);  // straggler dropped

  // A too-late report for the closed round is discarded, not an error.
  server.report(3, 99.0);
  EXPECT_EQ(server.rounds_completed(), 1u);

  // The surviving ranks keep tuning at the shrunken width.
  for (std::size_t r = 0; r < 3; ++r) (void)server.fetch(r);
  for (std::size_t r = 0; r < 3; ++r) server.report(r, 2.0);
  EXPECT_EQ(server.rounds_completed(), 2u);
  EXPECT_DOUBLE_EQ(server.step_costs()[1], 2.0);
}

TEST(Server, DroppedRankReentersAtTheNextRound) {
  Server server(fixed(1.0), 4,
                deadline_options(0.2, StragglerPolicy::kShrink));
  for (std::size_t r = 0; r < 4; ++r) (void)server.fetch(r);
  for (std::size_t r = 0; r < 3; ++r) {
    server.report(r, static_cast<double>(r) + 1.0);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  ASSERT_TRUE(server.tick());  // round 0 closed; rank 3 dropped
  ASSERT_EQ(server.active_ranks(), 3u);

  // Rank 3 comes back: its fetch re-enters the session and blocks until
  // the round it can join (round 2) opens.
  std::jthread comeback([&server] {
    (void)server.fetch(3);
    server.report(3, 4.0);
  });
  // Wait until the re-entry registered (fetch readmitted the rank) before
  // closing round 1 — otherwise round 2 could open without rank 3.
  while (server.active_ranks() != 4) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The survivors finish round 1 (width 3), which opens round 2 with rank
  // 3 readmitted.
  for (std::size_t r = 0; r < 3; ++r) (void)server.fetch(r);
  for (std::size_t r = 0; r < 3; ++r) server.report(r, 1.0);
  EXPECT_EQ(server.rounds_completed(), 2u);

  // Round 2 runs at full width again; rank 3's 4.0 is the step cost.
  for (std::size_t r = 0; r < 3; ++r) (void)server.fetch(r);
  for (std::size_t r = 0; r < 3; ++r) server.report(r, 1.0);
  comeback.join();
  EXPECT_EQ(server.rounds_completed(), 3u);
  EXPECT_EQ(server.active_ranks(), 4u);
  EXPECT_DOUBLE_EQ(server.step_costs()[2], 4.0);
}

TEST(Server, TryFetchReentersAndRejectsDoubleFetchLikeFetch) {
  // The event-loop fetch takes the same locked step as fetch(): a dropped
  // rank is readmitted without blocking, served once the round it joined
  // opens, and a second fetch without a report is a ProtocolError.
  Server server(fixed(1.0), 4,
                deadline_options(0.005, StragglerPolicy::kShrink));
  for (std::size_t r = 0; r < 4; ++r) (void)server.fetch(r);
  for (std::size_t r = 0; r < 3; ++r) server.report(r, 1.0);
  while (!server.tick()) std::this_thread::yield();  // rank 3 dropped
  ASSERT_EQ(server.active_ranks(), 3u);

  Point cfg;
  obs::TraceContext trace;
  EXPECT_FALSE(server.try_fetch_into(3, cfg, trace));  // re-enters round 2
  EXPECT_EQ(server.active_ranks(), 4u);
  EXPECT_FALSE(server.try_fetch_into(3, cfg, trace));  // round 1 still open
  EXPECT_EQ(server.active_ranks(), 4u);

  // The survivors close round 1, which opens round 2 with rank 3 in it.
  for (std::size_t r = 0; r < 3; ++r) (void)server.fetch(r);
  for (std::size_t r = 0; r < 3; ++r) server.report(r, 1.0);
  ASSERT_EQ(server.rounds_completed(), 2u);
  ASSERT_TRUE(server.try_fetch_into(3, cfg, trace));
  EXPECT_EQ(cfg, Point{1.0});
  EXPECT_EQ(trace.trace_id, server.round_trace_id(2));
  EXPECT_THROW((void)server.try_fetch_into(3, cfg, trace), ProtocolError);

  for (std::size_t r = 0; r < 3; ++r) (void)server.fetch(r);
  for (std::size_t r = 0; r < 4; ++r) server.report(r, 2.0);
  EXPECT_EQ(server.rounds_completed(), 3u);
  EXPECT_DOUBLE_EQ(server.step_costs()[2], 2.0);
}

TEST(Server, FailPolicyPoisonsTheSession) {
  Server server(fixed(1.0), 2,
                deadline_options(0.05, StragglerPolicy::kFail));
  (void)server.fetch(0);
  (void)server.fetch(1);
  server.report(0, 1.0);
  // Rank 1 never reports; rank 0's next fetch blocks until the deadline
  // trips and the kFail policy poisons the session.
  EXPECT_THROW((void)server.fetch(0), ProtocolError);
  EXPECT_THROW(server.report(1, 2.0), ProtocolError);
  EXPECT_THROW((void)server.fetch(0), ProtocolError);
}

// ------------------------------------------------------- observer fan-out

TEST(Server, ObserverEmitsSameTelemetryAsRunSession) {
  // The same strategy/machine driven through run_session and through the
  // Server protocol must stream byte-identical CSV telemetry.
  auto land = std::make_shared<core::FunctionLandscape>(
      "flat", [](const Point& p) { return 1.0 + p[0]; });
  constexpr std::size_t kRanks = 3;
  constexpr std::size_t kSteps = 20;

  std::ostringstream via_session;
  {
    core::CsvSessionLogger logger(via_session);
    cluster::SimulatedCluster machine(
        land, std::make_shared<varmodel::NoNoise>(), {.ranks = kRanks});
    core::FixedStrategy strategy(Point{2.0});
    core::SessionOptions so;
    so.steps = kSteps;
    so.observer = &logger;
    (void)core::run_session(strategy, machine, so);
  }

  std::ostringstream via_server;
  {
    core::CsvSessionLogger logger(via_server);
    cluster::SimulatedCluster machine(
        land, std::make_shared<varmodel::NoNoise>(), {.ranks = kRanks});
    ServerOptions options;
    options.observer = &logger;
    Server server(fixed(2.0), kRanks, options);
    for (std::size_t k = 0; k < kSteps; ++k) {
      std::vector<Point> configs;
      for (std::size_t r = 0; r < kRanks; ++r) {
        configs.push_back(server.fetch(r));
      }
      const std::vector<double> times =
          machine.run_step({configs.data(), configs.size()});
      for (std::size_t r = 0; r < kRanks; ++r) server.report(r, times[r]);
    }
  }

  EXPECT_EQ(via_session.str(), via_server.str());
  EXPECT_FALSE(via_session.str().empty());
}

}  // namespace
}  // namespace protuner
