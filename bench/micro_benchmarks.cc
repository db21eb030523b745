// Google-benchmark microbenchmarks for the core primitives: projection,
// simplex transforms, PRO stepping, database interpolation, noise sampling
// and the two-priority-queue simulator.  These guard the library's
// per-operation costs (the tuning layer must be negligible next to one
// application iteration).
#include <benchmark/benchmark.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/simulated_cluster.h"
#include "core/fixed.h"
#include "core/pro.h"
#include "core/projection.h"
#include "core/round_engine.h"
#include "core/session.h"
#include "core/simplex.h"
#include "exp/parallel_runner.h"
#include "gs2/database.h"
#include "gs2/surface.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/pareto.h"
#include "util/rng.h"
#include "varmodel/composite_noise.h"
#include "varmodel/pareto_noise.h"
#include "varmodel/simple_noise.h"
#include "varmodel/two_job_sim.h"

using namespace protuner;

namespace {

void BM_Projection(benchmark::State& state) {
  const auto space = gs2::gs2_space();
  const core::Point center = space.center();
  core::Point x{33.1, 17.7, 41.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::project(space, center, x));
  }
}
BENCHMARK(BM_Projection);

void BM_SimplexReflections(benchmark::State& state) {
  const auto space = gs2::gs2_space();
  core::Simplex s = core::axial_2n_simplex(space, 0.2);
  s.set_values(std::vector<double>{1, 2, 3, 4, 5, 6});
  s.order();
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.reflections(space));
  }
}
BENCHMARK(BM_SimplexReflections);

void BM_SurfaceEval(benchmark::State& state) {
  const gs2::Gs2Surface surface;
  const core::Point x{32.0, 16.0, 16.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(surface.clean_time(x));
  }
}
BENCHMARK(BM_SurfaceEval);

// A stored point: the first lookup is an exact grid-row hit that fills the
// point's memo slot, so every iteration after it is a memo hit.
void BM_DatabaseExactLookup(benchmark::State& state) {
  const auto space = gs2::gs2_space();
  const gs2::Gs2Surface surface;
  const gs2::Database db = gs2::Database::measure(space, surface, {});
  const core::Point x{16.0, 8.0, 4.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.clean_time(x));
  }
}
BENCHMARK(BM_DatabaseExactLookup);

void BM_DatabaseInterpolatedLookupCached(benchmark::State& state) {
  const auto space = gs2::gs2_space();
  const gs2::Gs2Surface surface;
  const gs2::Database db = gs2::Database::measure(space, surface, {});
  const core::Point x{16.0, 9.0, 4.0};  // off the stride-2 grid
  (void)db.clean_time(x);               // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.clean_time(x));
  }
}
BENCHMARK(BM_DatabaseInterpolatedLookupCached);

// --- Interpolation-miss cost: the grid walk vs the brute-force
// reference, on the real GS2 database (stride 2, 14 297 entries) and on a
// large 4-D grid (~28k entries).  Both variants bypass the memo and the
// exact row, so these measure the pure per-miss interpolation work that
// every cold lookup pays.  The two must return bit-identical values
// (test_database_index); the indexed path must be >= 10x faster at
// database scale (EXPERIMENTS.md records the measured ratio).

gs2::Database make_gs2_db() {
  return gs2::Database::measure(gs2::gs2_space(), gs2::Gs2Surface{}, {});
}

gs2::Database make_large_db() {
  const core::ParameterSpace space({
      core::Parameter::integer("a", 0, 12),
      core::Parameter::integer("b", 0, 12),
      core::Parameter::integer("c", 0, 12),
      core::Parameter::integer("d", 0, 12),
  });
  const core::QuadraticLandscape bowl(core::Point{6.0, 5.0, 7.0, 4.0}, 1.0,
                                      0.1);
  return gs2::Database::measure(space, bowl, {.stride = 1});
}

std::vector<core::Point> off_grid_queries(const core::ParameterSpace& space,
                                          int n) {
  util::Rng rng(99);
  std::vector<core::Point> pts;
  for (int i = 0; i < n; ++i) {
    core::Point x(space.size());
    for (std::size_t d = 0; d < space.size(); ++d) {
      x[d] = rng.uniform(space.param(d).lower(), space.param(d).upper());
    }
    pts.push_back(std::move(x));
  }
  return pts;
}

/// Admissible points: the queries strategies issue, and the only ones the
/// lattice memo serves.
std::vector<core::Point> lattice_queries(const core::ParameterSpace& space,
                                         int n) {
  util::Rng rng(99);
  std::vector<core::Point> pts;
  for (int i = 0; i < n; ++i) pts.push_back(space.random_point(rng));
  return pts;
}

void BM_DatabaseInterpolate_Reference(benchmark::State& state) {
  const gs2::Database db = state.range(0) == 0 ? make_gs2_db()
                                               : make_large_db();
  const auto pts = off_grid_queries(db.space(), 64);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.interpolate_reference(pts[i]));
    i = (i + 1) % pts.size();
  }
  state.SetLabel(state.range(0) == 0 ? "gs2" : "large");
  state.counters["entries"] = static_cast<double>(db.entries());
}
BENCHMARK(BM_DatabaseInterpolate_Reference)->Arg(0)->Arg(1);

void BM_DatabaseInterpolate_Indexed(benchmark::State& state) {
  const gs2::Database db = state.range(0) == 0 ? make_gs2_db()
                                               : make_large_db();
  const auto pts = off_grid_queries(db.space(), 64);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.interpolate_uncached(pts[i]));
    i = (i + 1) % pts.size();
  }
  state.SetLabel(state.range(0) == 0 ? "gs2" : "large");
  state.counters["entries"] = static_cast<double>(db.entries());
}
BENCHMARK(BM_DatabaseInterpolate_Indexed)->Arg(0)->Arg(1);

// Cold-start cost of one load(), whose constructor builds the index (measure
// pays the same build once) — context for the per-miss wins above.
void BM_DatabaseIndexBuild(benchmark::State& state) {
  const gs2::Database db = state.range(0) == 0 ? make_gs2_db()
                                               : make_large_db();
  std::ostringstream dump;
  db.save(dump);
  const std::string csv = dump.str();
  const core::Point probe = off_grid_queries(db.space(), 1)[0];
  for (auto _ : state) {
    std::istringstream in(csv);
    gs2::Database fresh =
        gs2::Database::load(in, db.space(), {});
    benchmark::DoNotOptimize(fresh.interpolate_uncached(probe));
  }
  state.SetLabel(state.range(0) == 0 ? "gs2" : "large");
  state.counters["entries"] = static_cast<double>(db.entries());
}
BENCHMARK(BM_DatabaseIndexBuild)->Arg(0)->Arg(1);

// Batch landscape lookup over a warm batch, the shape
// SimulatedCluster::run_step drives every step (one config per rank,
// duplicates from replicated sampling): every point is a memo hit.
void BM_DatabaseBatchLookup(benchmark::State& state) {
  const gs2::Database db = make_gs2_db();
  auto pts = lattice_queries(db.space(), 6);
  pts.push_back(pts[0]);  // replicated-sampling duplicates
  pts.push_back(pts[1]);
  std::vector<double> out(pts.size());
  db.clean_times(pts, out);  // warm
  for (auto _ : state) {
    db.clean_times(pts, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pts.size()));
}
BENCHMARK(BM_DatabaseBatchLookup);

// One full simulated cluster step (8 ranks, mixed on/off-grid configs)
// through the batched landscape path — the per-step cost the optimizer
// loop pays.
void BM_ClusterStep(benchmark::State& state) {
  const auto space = gs2::gs2_space();
  auto db = std::make_shared<gs2::Database>(make_gs2_db());
  auto noise = std::make_shared<varmodel::ParetoNoise>(0.2, 1.7);
  cluster::SimulatedCluster machine(db, noise, {.ranks = 8, .seed = 5});
  auto configs = off_grid_queries(space, 6);
  configs.push_back(configs[0]);
  configs.push_back(core::Point{16.0, 8.0, 4.0});  // exact hit
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine.run_step(configs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_ClusterStep);

// Concurrent memoised lookups: each benchmark thread walks its own set of
// admissible points against one shared database.  A memo hit is one
// relaxed load, so per-lookup cost must stay flat as ->Threads() grows.
void BM_DatabaseLookup_Concurrent(benchmark::State& state) {
  static const auto space = gs2::gs2_space();
  static const gs2::Gs2Surface surface;
  static const gs2::Database db = gs2::Database::measure(space, surface, {});
  std::vector<core::Point> pts;
  util::Rng rng(static_cast<std::uint64_t>(state.thread_index()) + 1);
  for (int i = 0; i < 64; ++i) pts.push_back(space.random_point(rng));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.clean_time(pts[i]));
    i = (i + 1) % pts.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DatabaseLookup_Concurrent)->Threads(1)->Threads(4)->Threads(8);

// One fork-join batch of 256 empty indices on 4 threads — the per-index
// overhead floor of exp::run_repetitions and exp::run_grid.  Per index it
// must stay far below one repetition, a whole tuning session (tens of
// microseconds and up).
void BM_RunIndexed_Dispatch(benchmark::State& state) {
  for (auto _ : state) {
    exp::detail::run_indexed(256, 4,
                             [](long i) { benchmark::DoNotOptimize(i); });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_RunIndexed_Dispatch);

void BM_ParetoNoiseSample(benchmark::State& state) {
  const varmodel::ParetoNoise noise(0.3, 1.7);
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(noise.sample(1.0, rng));
  }
}
BENCHMARK(BM_ParetoNoiseSample);

void BM_TwoJobSimRun(benchmark::State& state) {
  varmodel::TwoJobConfig cfg;
  cfg.arrival_rate = 0.3;
  cfg.service = std::make_shared<stats::Pareto>(1.7, 0.41);
  const varmodel::TwoJobSimulator sim(cfg);
  util::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run_application(5.0, rng));
  }
}
BENCHMARK(BM_TwoJobSimRun);

// One PRO round through the engine at 6 ranks (the Fig. 10 shape), 64 and
// 256 (the serving shape of a hot session).  The session converges early,
// so the timing is dominated by the converged tail; both the searching and
// converged phases run in recycled storage.
void BM_ProTuningStep(benchmark::State& state) {
  const auto ranks = static_cast<std::size_t>(state.range(0));
  const auto space = gs2::gs2_space();
  const gs2::Gs2Surface surface;
  auto db = std::make_shared<gs2::Database>(
      gs2::Database::measure(space, surface, {}));
  auto noise = std::make_shared<varmodel::ParetoNoise>(0.2, 1.7);
  cluster::SimulatedCluster machine(db, noise, {.ranks = ranks, .seed = 3});
  core::ProStrategy pro(space, {});
  core::RoundEngineOptions eo;
  eo.width = ranks;
  eo.record_series = false;
  core::RoundEngine engine(pro, eo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.step(machine));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ranks));
}
BENCHMARK(BM_ProTuningStep)->Arg(6)->Arg(64)->Arg(256);

void BM_FullTuningSession100(benchmark::State& state) {
  const auto space = gs2::gs2_space();
  const gs2::Gs2Surface surface;
  auto db = std::make_shared<gs2::Database>(
      gs2::Database::measure(space, surface, {}));
  auto noise = std::make_shared<varmodel::ParetoNoise>(0.2, 1.7);
  for (auto _ : state) {
    cluster::SimulatedCluster machine(db, noise, {.ranks = 6, .seed = 4});
    core::ProStrategy pro(space, {});
    benchmark::DoNotOptimize(
        core::run_session(pro, machine, {.steps = 100}));
  }
}
BENCHMARK(BM_FullTuningSession100);

// ------------------------------------------------------------------
// Simulation hot path: the batched zero-allocation step pipeline, plus the
// noise layer in isolation.  BENCH_cluster.json tracks these.

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

// The whole converged round through the engine: propose_into recycling,
// batched evaluation, Eq. 1/2 accounting.
void BM_SessionThroughput(benchmark::State& state) {
  const auto ranks = static_cast<std::size_t>(state.range(0));
  auto db = hot_path_db();
  auto noise = std::make_shared<varmodel::ParetoNoise>(0.2, 1.7);
  cluster::SimulatedCluster machine(db, noise, {.ranks = ranks, .seed = 5});
  core::FixedStrategy fx(core::Point{33.0, 17.0, 41.0});
  core::RoundEngineOptions eo;
  eo.width = ranks;
  eo.record_series = false;
  core::RoundEngine engine(fx, eo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.step(machine));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ranks));
}
BENCHMARK(BM_SessionThroughput)->Arg(8)->Arg(64);

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

std::shared_ptr<const varmodel::NoiseModel> bench_noise_model(int idx) {
  switch (idx) {
    case 0:
      return std::make_shared<varmodel::ExponentialNoise>(0.2);
    case 1:
      return std::make_shared<varmodel::ParetoNoise>(0.2, 1.7);
    case 2:
      return std::make_shared<varmodel::GaussianNoise>(0.2, 0.5);
    default:
      return std::make_shared<varmodel::CompositeNoise>(
          std::make_shared<varmodel::ExponentialNoise>(0.1),
          std::make_shared<varmodel::ParetoNoise>(0.15, 1.7));
  }
}

void BM_NoiseSample_scalar(benchmark::State& state) {
  constexpr std::size_t kRanks = 64;
  const auto model = bench_noise_model(static_cast<int>(state.range(0)));
  std::vector<util::Rng> rngs = util::Rng(3).split_streams(kRanks);
  const std::vector<double> clean(kRanks, 2.5);
  std::vector<double> out(kRanks);
  for (auto _ : state) {
    for (std::size_t i = 0; i < kRanks; ++i) {
      out[i] = model->sample(clean[i], rngs[i]);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kRanks);
  state.SetLabel(model->name());
}
BENCHMARK(BM_NoiseSample_scalar)->DenseRange(0, 3);

void BM_NoiseSample_batch(benchmark::State& state) {
  constexpr std::size_t kRanks = 64;
  const auto model = bench_noise_model(static_cast<int>(state.range(0)));
  std::vector<util::Rng> rngs = util::Rng(3).split_streams(kRanks);
  const std::vector<double> clean(kRanks, 2.5);
  std::vector<double> out(kRanks);
  for (auto _ : state) {
    model->sample_batch({clean.data(), clean.size()},
                        {rngs.data(), rngs.size()},
                        {out.data(), out.size()});
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kRanks);
  state.SetLabel(model->name());
}
BENCHMARK(BM_NoiseSample_batch)->DenseRange(0, 3);

}  // namespace

BENCHMARK_MAIN();
