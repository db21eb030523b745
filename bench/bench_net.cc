// Network serving tier benchmark (DESIGN.md §14): the two wire-tier claims
// perfbench's serve_wire workload does not measure, both through
// apps::run_loadgen's loopback mode (one rank per connection, phase-locked
// rounds, heavy-tailed think times):
//
//   BM_NetManyConnections/1024   a 1024-connection soak (4 sessions of 256
//                                ranks): the C10k-style record.  The p99
//                                counters come from the obs:: wire
//                                histograms the server publishes anyway.
//   BM_NetSoakWithScrapes/Hz     a 256-connection soak with an HTTP
//                                /metrics scraper antagonist hitting the
//                                same epoll loop at Hz (0 = baseline).
//                                ops_per_sec at /50 vs /0 is the recorded
//                                cost of serving the exporter in-loop
//                                (acceptance: <= 3%).
//
// BENCH_net.json is the committed capture (tools/bench_capture.sh
// regenerates it); the bench_smoke_net ctest runs both at a short
// min_time.
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <algorithm>

#include "apps/harmony_loadgen.h"

namespace {

using namespace protuner;

void BM_NetManyConnections(benchmark::State& state) {
  apps::LoadgenOptions options;
  options.mode = apps::LoadgenMode::kLoopback;
  // One rank per connection, in sessions of 256 ranks so round width (and
  // with it round wall time) stays that of the 256-connection soak.
  options.sessions = static_cast<std::size_t>(state.range(0)) / 256;
  options.workers = 256;
  options.ranks = 256;
  options.rounds = 40;
  options.heavy_tail = true;
  apps::LoadgenReport rep;
  for (auto _ : state) {
    rep = apps::run_loadgen(options);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>((rep.fetch_ops + rep.report_ops) *
                                state.iterations()));
  state.counters["connections"] =
      static_cast<double>(rep.net_connections);
  state.counters["ops_per_sec"] = rep.ops_per_sec;
  // The acceptance quantile: server-side fetch wire latency (decode to
  // reply queued, including the wait for the round to open) from obs::.
  state.counters["fetch_wire_p50_ns"] = rep.wire_fetch_p50_ns;
  state.counters["fetch_wire_p99_ns"] = rep.wire_fetch_p99_ns;
  state.counters["fetch_wire_p999_ns"] = rep.wire_fetch_p999_ns;
}
BENCHMARK(BM_NetManyConnections)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_NetSoakWithScrapes(benchmark::State& state) {
  apps::LoadgenOptions options;
  options.mode = apps::LoadgenMode::kLoopback;
  options.sessions = 1;
  options.ranks = 256;
  options.workers = 256;
  options.rounds = 160;
  options.heavy_tail = true;
  options.scrape_hz = static_cast<double>(state.range(0));
  apps::LoadgenReport rep;
  for (auto _ : state) {
    rep = apps::run_loadgen(options);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>((rep.fetch_ops + rep.report_ops) *
                                state.iterations()));
  state.counters["ops_per_sec"] = rep.ops_per_sec;
  state.counters["scrapes"] = static_cast<double>(rep.scrapes);
  state.counters["fetch_wire_p99_ns"] = rep.wire_fetch_p99_ns;
}
BENCHMARK(BM_NetSoakWithScrapes)->Arg(0)->Arg(50)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main: the 1024-connection soak needs headroom above the common
// 1024 soft fd limit (each connection is a client fd + an accepted fd).
int main(int argc, char** argv) {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < 16384) {
    rl.rlim_cur = std::min<rlim_t>(rl.rlim_max, 16384);
    ::setrlimit(RLIMIT_NOFILE, &rl);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
