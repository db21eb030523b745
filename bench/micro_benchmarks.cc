// Google-benchmark timings of the telemetry cost contract: the obs::
// record operations in isolation, and the converged simulation step with
// and without the per-round telemetry the engine adds.  BENCH_obs.json is
// the committed capture (tools/bench_capture.sh regenerates it); the
// end-to-end costs of the tuning layer are perfbench's (BENCHMARK.json).
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "cluster/simulated_cluster.h"
#include "gs2/database.h"
#include "gs2/surface.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "varmodel/pareto_noise.h"
#include "varmodel/simple_noise.h"

using namespace protuner;

namespace {

std::shared_ptr<gs2::Database> hot_path_db() {
  static auto db = std::make_shared<gs2::Database>(
      gs2::Database::measure(gs2::gs2_space(), gs2::Gs2Surface{}, {}));
  return db;
}

// One distinct off-grid vertex per rank, the shape a PRO round hands the
// cluster: every rank evaluates its own simplex point, and the same
// rank->config assignment repeats step after step within the round.
std::vector<core::Point> hot_path_configs(std::size_t ranks) {
  std::vector<core::Point> configs;
  configs.reserve(ranks);
  for (std::size_t i = 0; i < ranks; ++i) {
    configs.push_back(core::Point{33.0 + 0.25 * static_cast<double>(i % 8),
                                  17.0 + 0.125 * static_cast<double>(i % 16),
                                  41.0 + 0.0625 * static_cast<double>(i)});
  }
  return configs;
}

// The converged-loop shape: the same per-rank assignment every step, which
// is what a tuning session spends almost all of its steps on once the
// strategy has pinned its simplex.
void RunStepBench(benchmark::State& state,
                  std::shared_ptr<const varmodel::NoiseModel> noise) {
  const auto ranks = static_cast<std::size_t>(state.range(0));
  auto db = hot_path_db();
  cluster::SimulatedCluster machine(db, std::move(noise),
                                    {.ranks = ranks, .seed = 11});
  const std::vector<core::Point> configs = hot_path_configs(ranks);
  std::vector<double> out(ranks);
  for (auto _ : state) {
    machine.run_step_into({configs.data(), configs.size()},
                          {out.data(), out.size()});
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ranks));
}

void BM_RunStep_simple(benchmark::State& state) {
  RunStepBench(state, std::make_shared<varmodel::ExponentialNoise>(0.2));
}
BENCHMARK(BM_RunStep_simple)->Arg(8)->Arg(64);

void BM_RunStep_pareto(benchmark::State& state) {
  RunStepBench(state, std::make_shared<varmodel::ParetoNoise>(0.2, 1.7));
}
BENCHMARK(BM_RunStep_pareto)->Arg(8)->Arg(64);

// ------------------------------------------------------------------
// Telemetry cost contract (BENCH_obs.json): the hot-path record
// operations in isolation, and the converged step loop with the full
// per-step telemetry attached.  Acceptance: BM_RunStep_instrumented
// within 3% of BM_RunStep_pareto at the same rank count.  The counter and
// histogram records also run on 4 threads sharing one instrument, the
// shape the per-thread cells of obs::Counter and obs::Histogram are for.

void BM_MetricRecord_counter(benchmark::State& state) {
  obs::Counter& c =
      obs::Registry::global().counter("bench_record_total", "",
                                      {{"session", "bench"}});
  for (auto _ : state) {
    c.add();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricRecord_counter)->Threads(1)->Threads(4);

void BM_MetricRecord_histogram(benchmark::State& state) {
  obs::Histogram& h =
      obs::Registry::global().histogram("bench_record_hist", "",
                                        {{"session", "bench"}});
  // Walk values across four decades so the CAS-max path and different
  // buckets both get exercised, like a real heavy-tailed cost stream.
  double v = 1.0;
  for (auto _ : state) {
    h.record(v);
    v = v < 1e4 ? v * 1.7 : 1.0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricRecord_histogram)->Threads(1)->Threads(4);

void BM_MetricRecord_span_disabled(benchmark::State& state) {
  obs::Tracer tracer;  // disabled: the cost is one relaxed load
  for (auto _ : state) {
    const obs::ScopedSpan span(tracer, "bench/span");
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricRecord_span_disabled);

void BM_MetricRecord_span_enabled(benchmark::State& state) {
  obs::Tracer tracer;
  tracer.configure(true, 1);
  { const obs::ScopedSpan warm(tracer, "bench/span"); }  // ring creation
  for (auto _ : state) {
    const obs::ScopedSpan span(tracer, "bench/span");
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricRecord_span_enabled);

// The converged-loop step with the exact per-round telemetry the engine
// adds in the SHIPPED configuration — metrics always on (one counter add +
// one histogram record per round), tracing disabled (four inert ScopedSpans,
// one relaxed load each), on the same machine/configs as BM_RunStep_pareto.
// The 3%-overhead acceptance compares this against BM_RunStep_pareto.
void RunStepInstrumentedBench(benchmark::State& state, bool trace) {
  const auto ranks = static_cast<std::size_t>(state.range(0));
  auto db = hot_path_db();
  cluster::SimulatedCluster machine(
      db, std::make_shared<varmodel::ParetoNoise>(0.2, 1.7),
      {.ranks = ranks, .seed = 11});
  const std::vector<core::Point> configs = hot_path_configs(ranks);
  std::vector<double> out(ranks);
  obs::Counter& rounds =
      obs::Registry::global().counter("bench_step_rounds_total", "",
                                      {{"session", "bench"}});
  obs::Histogram& cost =
      obs::Registry::global().histogram("bench_step_cost", "",
                                        {{"session", "bench"}});
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.configure(trace, 1);
  if (trace) {
    const obs::ScopedSpan warm(tracer, "bench/step");  // ring creation
  }
  for (auto _ : state) {
    // Mirror the engine's span sites: step wrapping assign/collect/advance.
    const obs::ScopedSpan step_span(tracer, "bench/step");
    { const obs::ScopedSpan assign(tracer, "bench/assign"); }
    {
      const obs::ScopedSpan collect(tracer, "bench/collect");
      machine.run_step_into({configs.data(), configs.size()},
                            {out.data(), out.size()});
    }
    const obs::ScopedSpan advance(tracer, "bench/advance");
    rounds.add();
    cost.record(out[0]);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  tracer.configure(false);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ranks));
}

void BM_RunStep_instrumented(benchmark::State& state) {
  RunStepInstrumentedBench(state, /*trace=*/false);
}
BENCHMARK(BM_RunStep_instrumented)->Arg(8)->Arg(64);

// The opt-in debug configuration (OBS_TRACE=1): every span recorded.  Not
// subject to the 3% bar — this is the "pay for what you ask for" mode; the
// per-span cost is two steady_clock reads plus a ring write.
void BM_RunStep_traced(benchmark::State& state) {
  RunStepInstrumentedBench(state, /*trace=*/true);
}
BENCHMARK(BM_RunStep_traced)->Arg(8)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
