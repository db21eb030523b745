// Serving-tier soak benchmark: the contention-free fetch/report hot path
// (DESIGN.md §12) at the loadgen's workload shape — N sessions × P ranks
// driven by phase-locked multiplexing workers with heavy-tailed (Pareto)
// reported times, with and without a monitor antagonist sweeping the
// accounting accessors.
//
// BENCH_serving.json (bench_smoke_serving ctest / bench-smoke target) is
// the committed trajectory file for the serving tier.
#include <benchmark/benchmark.h>

#include <atomic>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fixed.h"
#include "harmony/server.h"
#include "util/rng.h"
#include "varmodel/pareto_noise.h"

namespace {

using namespace protuner;

struct SoakShape {
  std::size_t sessions;
  std::size_t ranks;
  std::size_t workers;  ///< per session
  std::size_t rounds;
  bool monitor;
};

std::vector<std::unique_ptr<harmony::Server>> make_servers(
    const SoakShape& shape, obs::Registry& registry) {
  std::vector<std::unique_ptr<harmony::Server>> servers;
  servers.reserve(shape.sessions);
  for (std::size_t s = 0; s < shape.sessions; ++s) {
    harmony::ServerOptions so;
    so.metrics = &registry;
    so.record_series = false;
    so.session = "soak-" + std::to_string(s);
    servers.push_back(std::make_unique<harmony::Server>(
        std::make_unique<core::FixedStrategy>(core::Point(4, 1.0)),
        shape.ranks, so));
  }
  return servers;
}

// One soak run; returns completed fetch+report op count.  Worker shape
// matches apps::run_loadgen: per-session phase-locked multiplexers, think
// times drawn from the paper's Pareto noise and reported as virtual time.
std::size_t run_soak(const SoakShape& shape,
                     std::vector<std::unique_ptr<harmony::Server>>& servers) {
  std::latch start(1);
  std::atomic<bool> stop{false};
  const varmodel::ParetoNoise think(0.3, 1.7);
  std::vector<std::jthread> threads;
  threads.reserve(shape.sessions * shape.workers + 1);
  for (std::size_t s = 0; s < shape.sessions; ++s) {
    for (std::size_t w = 0; w < shape.workers; ++w) {
      threads.emplace_back([&, s, w] {
        harmony::Server& server = *servers[s];
        const std::size_t lo = w * shape.ranks / shape.workers;
        const std::size_t hi = (w + 1) * shape.ranks / shape.workers;
        util::Rng rng(0x9e3779b97f4a7c15ULL * (s * shape.workers + w + 1));
        core::Point scratch;
        start.wait();
        for (std::size_t round = 0; round < shape.rounds; ++round) {
          for (std::size_t r = lo; r < hi; ++r) {
            server.fetch_into(r, scratch);
            server.report(r, think.observe(50e-6, rng));
          }
        }
      });
    }
  }
  if (shape.monitor) {
    threads.emplace_back([&] {
      start.wait();
      while (!stop.load(std::memory_order_relaxed)) {
        // The SessionManager::stats_all sweep, per session: the same seven
        // accessors stats_of reads.
        for (const auto& server : servers) {
          benchmark::DoNotOptimize(server->strategy_name());
          benchmark::DoNotOptimize(server->active_ranks());
          benchmark::DoNotOptimize(server->rounds_completed());
          benchmark::DoNotOptimize(server->total_time());
          benchmark::DoNotOptimize(server->converged());
          benchmark::DoNotOptimize(server->convergence_round());
          benchmark::DoNotOptimize(server->best_point());
        }
      }
    });
  }
  start.count_down();
  for (std::size_t i = 0; i < shape.sessions * shape.workers; ++i) {
    threads[i].join();
  }
  stop.store(true, std::memory_order_relaxed);
  threads.clear();
  return shape.sessions * shape.ranks * shape.rounds * 2;
}

SoakShape shape_from(const benchmark::State& state) {
  return SoakShape{static_cast<std::size_t>(state.range(0)),
                   static_cast<std::size_t>(state.range(1)),
                   static_cast<std::size_t>(state.range(2)),
                   static_cast<std::size_t>(state.range(3)),
                   state.range(4) != 0};
}

void BM_Serving_sharded(benchmark::State& state) {
  const SoakShape shape = shape_from(state);
  std::size_t ops = 0;
  for (auto _ : state) {
    obs::Registry registry;
    auto servers = make_servers(shape, registry);
    ops += run_soak(shape, servers);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}

// Args: {sessions, ranks, workers/session, rounds, monitor}.
// The headline shape is 8 sessions × 64 ranks; the smaller shapes track
// how the per-op cost scales down, and the monitored rows measure
// exporter interference (the production serving shape: something is
// always scraping).  workers=1 is the event-loop row: one thread drives
// all 64 ranks and closes every round inline, so nothing ever blocks and
// the pure per-op cost shows through without scheduler noise.
BENCHMARK(BM_Serving_sharded)
    ->Args({1, 16, 2, 40, 0})
    ->Args({4, 16, 2, 40, 0})
    ->Args({8, 64, 1, 40, 0})
    ->Args({8, 64, 2, 20, 0})
    ->Args({8, 64, 2, 20, 1})
    ->Args({8, 64, 8, 20, 0})
    ->Args({8, 64, 16, 20, 0})
    ->Args({8, 64, 64, 10, 0})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
