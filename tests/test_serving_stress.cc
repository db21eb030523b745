// Serving-tier concurrency stress: the SessionManager registry, the obs
// exporters and the Server fast path all running against each other the
// way a production tuning service does.  These tests are the tier1-tsan
// regression net for DESIGN.md §12:
//
//   * registry churn (create/attach/detach/remove) must never stall or
//     corrupt unrelated sessions' fetch/report traffic;
//   * a slow exporter sweeping stats_all() and Registry::snapshot() must
//     not hold the session registry against churn (an earlier manager
//     aggregated while holding its mutex);
//   * Server::tick() deadline enforcement must not block in-flight
//     fetches (asserted through the loadgen at two tick frequencies).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/harmony_loadgen.h"
#include "core/fixed.h"
#include "harmony/server.h"
#include "harmony/session_manager.h"
#include "obs/metrics.h"

namespace protuner {
namespace {

using core::FixedStrategy;
using core::Point;

harmony::ServerOptions quiet_options(obs::Registry& registry,
                                     const std::string& session) {
  harmony::ServerOptions so;
  so.metrics = &registry;
  so.record_series = false;
  so.session = session;
  return so;
}

TEST(ServingStress, RegistryChurnWhileRanksFetchAndReport) {
  // Two persistent sessions run real round traffic while churn threads
  // create/attach/detach/remove ephemeral sessions and an exporter sweeps
  // aggregate views.  Everything must run to completion with the traffic
  // sessions' accounting intact — under TSan this is also the data-race
  // proof for the registry lock + lock-free collecting phase.
  constexpr std::size_t kRanks = 4;
  constexpr std::size_t kRounds = 150;
  constexpr int kChurnThreads = 2;
  constexpr int kChurnCycles = 120;

  obs::Registry registry;
  harmony::SessionManager manager;
  for (int s = 0; s < 2; ++s) {
    manager.create("traffic-" + std::to_string(s),
                   std::make_unique<FixedStrategy>(Point{1.0, 2.0}), kRanks,
                   quiet_options(registry, "traffic-" + std::to_string(s)));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> churn_completed{0};
  std::vector<std::jthread> threads;

  for (int s = 0; s < 2; ++s) {
    threads.emplace_back([&manager, s] {
      const std::shared_ptr<harmony::Server> server =
          manager.attach("traffic-" + std::to_string(s));
      Point scratch;
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t r = 0; r < kRanks; ++r) {
          server->fetch_into(r, scratch);
          server->report(r, 1.0 + static_cast<double>(r));
        }
      }
      manager.detach("traffic-" + std::to_string(s));
    });
  }
  for (int c = 0; c < kChurnThreads; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < kChurnCycles; ++i) {
        const std::string name =
            "churn-" + std::to_string(c) + "-" + std::to_string(i % 7);
        auto server = manager.create(
            name, std::make_unique<FixedStrategy>(Point{3.0}), 2,
            quiet_options(registry, name));
        auto again = manager.attach(name);
        Point scratch;
        again->fetch_into(0, scratch);
        again->report(0, 0.5);
        EXPECT_THROW(manager.remove(name), harmony::SessionError)
            << "remove must refuse while attached";
        manager.detach(name);
        EXPECT_TRUE(manager.remove(name));
        churn_completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  threads.emplace_back([&] {  // exporter antagonist
    while (!stop.load(std::memory_order_relaxed)) {
      const auto stats = manager.stats_all();
      for (const auto& st : stats) {
        EXPECT_FALSE(st.name.empty());
        EXPECT_GE(st.clients, 2u);
      }
      const obs::RegistrySnapshot snap = registry.snapshot();
      EXPECT_GE(snap.instruments.size(), stats.size());
    }
  });

  for (std::size_t i = 0; i + 1 < threads.size(); ++i) threads[i].join();
  stop.store(true, std::memory_order_relaxed);
  threads.clear();

  EXPECT_EQ(churn_completed.load(), kChurnThreads * kChurnCycles);
  for (int s = 0; s < 2; ++s) {
    const auto st = manager.stats("traffic-" + std::to_string(s));
    EXPECT_EQ(st.rounds, kRounds);
    EXPECT_EQ(st.attached, 0u);
    EXPECT_EQ(st.active_ranks, kRanks);
  }
}

TEST(ServingStress, SlowExporterNeverHoldsRegistryAgainstChurn) {
  // Regression for the stats_all stop-the-world bug: the aggregation pass
  // used to run under the registry mutex, so an exporter mid-sweep blocked
  // every create/remove.  Now handles are pinned under a
  // brief reader lock and aggregated after release — sessions removed
  // mid-sweep stay alive through the exporter's shared_ptr (no
  // use-after-free), and churn completes regardless of exporter cadence.
  obs::Registry registry;
  harmony::SessionManager manager;
  // Enough sessions that one aggregation sweep is meaningfully long.
  for (int s = 0; s < 24; ++s) {
    const std::string name = "bed-" + std::to_string(s);
    manager.create(name, std::make_unique<FixedStrategy>(Point{1.0}), 2,
                   quiet_options(registry, name));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> sweeps{0};
  std::jthread exporter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto stats = manager.stats_all();
      EXPECT_GE(stats.size(), 24u);  // the fixed bed is always listed
      const obs::RegistrySnapshot snap = registry.snapshot();
      EXPECT_FALSE(snap.instruments.empty());
      sweeps.fetch_add(1, std::memory_order_relaxed);
    }
  });

  constexpr int kCycles = 400;
  for (int i = 0; i < kCycles; ++i) {
    const std::string name = "hot-" + std::to_string(i % 5);
    auto server =
        manager.create(name, std::make_unique<FixedStrategy>(Point{2.0}), 2,
                       quiet_options(registry, name));
    Point scratch;
    server->fetch_into(0, scratch);
    server->report(0, 1.0);
    ASSERT_TRUE(manager.remove(name));
    // The pinned handle keeps working after remove (unlisted session).
    server->fetch_into(1, scratch);
    server->report(1, 2.0);
  }
  // Require sweeps to have run concurrently with the churn epoch (on one
  // core the exporter may not have been scheduled yet): keep light churn
  // going until it has swept a few times.
  for (int i = 0; sweeps.load(std::memory_order_relaxed) < 3; ++i) {
    const std::string name = "tail-" + std::to_string(i % 3);
    manager.create(name, std::make_unique<FixedStrategy>(Point{2.0}), 2,
                   quiet_options(registry, name));
    ASSERT_TRUE(manager.remove(name));
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  exporter.join();

  EXPECT_GE(sweeps.load(), 3u);
  EXPECT_EQ(manager.size(), 24u);  // every hot session was removed
}

TEST(ServingStress, TickFrequencyDoesNotPerturbFetchPath) {
  // Server::tick() is deadline enforcement: with the deadline far away it
  // must return after two atomic loads, never touching the collecting
  // gate.  Drive identical soaks with no ticker and with an aggressive
  // 4 kHz ticker; semantics must be identical (same rounds, no expiries,
  // no discards) and the fetch latency distribution must not shift by
  // more than scheduler noise.  Bounds are deliberately generous — the
  // regression this guards (tick serializing against in-flight fetches)
  // shifts p50 by orders of magnitude, not percentages.
  apps::LoadgenOptions base;
  base.sessions = 2;
  base.ranks = 8;
  base.workers = 2;
  base.rounds = 120;
  base.dims = 2;
  base.heavy_tail = false;
  base.report_timeout = std::chrono::duration<double>(30.0);
  base.monitor = false;

  apps::LoadgenOptions ticked = base;
  ticked.tick_hz = 4000.0;

  const apps::LoadgenReport quiet = apps::run_loadgen(base);
  const apps::LoadgenReport noisy = apps::run_loadgen(ticked);

  const std::uint64_t expected_rounds = base.sessions * base.rounds;
  EXPECT_EQ(quiet.rounds_completed, expected_rounds);
  EXPECT_EQ(noisy.rounds_completed, expected_rounds);
  for (const apps::LoadgenReport* rep : {&quiet, &noisy}) {
    EXPECT_EQ(rep->protocol_errors, 0u);
    EXPECT_EQ(rep->deadline_expiries, 0u);
    EXPECT_EQ(rep->discarded_reports, 0u);
    EXPECT_GT(rep->fetch_ops, 0u);
  }
  EXPECT_EQ(quiet.ticks, 0u);
  EXPECT_GT(noisy.ticks, 0u);

  // Median insensitivity (log2-bucketed histograms quantize to 2x; a
  // tick() that blocked fetches behind the deadline lock would multiply
  // p50 by far more than the 16x allowed here, even under TSan).
  EXPECT_GT(quiet.fetch_p50_ns, 0.0);
  EXPECT_LE(noisy.fetch_p50_ns, 16.0 * quiet.fetch_p50_ns);
  // Tail sanity: p99.9 stays in scheduler-noise territory (well under the
  // 30 s deadline a blocking tick would push fetches toward).
  EXPECT_LT(noisy.fetch_p999_ns, 2.0e9);
}

}  // namespace
}  // namespace protuner
