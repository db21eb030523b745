// Allocation discipline and release-mode validation of the simulation hot
// path.
//
// The headline acceptance check for the batched pipeline: once warmed up, a
// steady-state RoundEngine step over a simulated machine performs ZERO heap
// allocations — proposal publication, clean-time lookup, noise draw and
// accounting all run in recycled storage.  Asserted with a counting global
// operator new.  This TU must not be linked into anything else (it replaces
// the global allocator) and is deliberately absent from the TSan test list.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cluster/clean_cache.h"
#include "cluster/simulated_cluster.h"
#include "cluster/trace_cluster.h"
#include "core/fixed.h"
#include "core/landscape.h"
#include "core/nelder_mead.h"
#include "core/pro.h"
#include "core/round_engine.h"
#include "core/sro.h"
#include "core/strategy_spec.h"
#include "gs2/database.h"
#include "gs2/surface.h"
#include "harmony/server.h"
#include "harmony/session_manager.h"
#include "net/client.h"
#include "net/net_server.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "varmodel/pareto_noise.h"
#include "varmodel/simple_noise.h"

#include "counting_allocator.h"

namespace protuner {
namespace {

using core::FixedStrategy;
using core::Point;
using core::QuadraticLandscape;
using core::RoundEngine;
using core::RoundEngineOptions;

TEST(StepAllocation, SteadyStateSimulatedClusterStepIsAllocationFree) {
  auto land = std::make_shared<QuadraticLandscape>(Point{4.0, 5.0, 6.0},
                                                   1.0, 0.05);
  auto noise = std::make_shared<varmodel::ParetoNoise>(0.2, 1.7);
  cluster::SimulatedCluster machine(land, noise, {.ranks = 16, .seed = 9});
  FixedStrategy fx(Point{3.0, 4.0, 5.0});
  RoundEngineOptions opts;
  opts.width = 16;
  opts.record_series = false;  // the series grows; steady state keeps totals
  RoundEngine engine(fx, opts);
  for (int i = 0; i < 5; ++i) engine.step(machine);  // warm every buffer
  const std::size_t before = allocation_count();
  for (int i = 0; i < 200; ++i) engine.step(machine);
  EXPECT_EQ(allocation_count(), before)
      << "steady-state step allocated on the heap";
  EXPECT_EQ(engine.rounds_completed(), 205u);
}

TEST(StepAllocation, SteadyStateSurvivesFullInstrumentation) {
  // Same steady-state contract with the telemetry stack fully on: session-
  // labelled metrics (counter adds + histogram records per round) and the
  // global tracer recording every engine span.  Instrument resolution and
  // ring creation allocate once, during construction/warm-up; the measured
  // window must stay silent.
  obs::Tracer::global().configure(true, 1);
  auto land = std::make_shared<QuadraticLandscape>(Point{4.0, 5.0, 6.0},
                                                   1.0, 0.05);
  auto noise = std::make_shared<varmodel::ParetoNoise>(0.2, 1.7);
  cluster::SimulatedCluster machine(land, noise, {.ranks = 16, .seed = 9});
  FixedStrategy fx(Point{3.0, 4.0, 5.0});
  RoundEngineOptions opts;
  opts.width = 16;
  opts.record_series = false;
  opts.session = "alloc-probe";
  RoundEngine engine(fx, opts);
  for (int i = 0; i < 5; ++i) engine.step(machine);  // warm buffers + ring
  const std::size_t before = allocation_count();
  for (int i = 0; i < 200; ++i) engine.step(machine);
  EXPECT_EQ(allocation_count(), before)
      << "instrumented steady-state step allocated on the heap";
  obs::Tracer::global().configure(false);
  const obs::RegistrySnapshot snap = obs::Registry::global().snapshot();
  const obs::InstrumentSnapshot* rounds =
      snap.find("protuner_rounds_total", "alloc-probe");
  ASSERT_NE(rounds, nullptr);
  EXPECT_EQ(rounds->value, 205.0);
}

TEST(StepAllocation, SteadyStateTraceClusterStepIsAllocationFree) {
  auto land = std::make_shared<QuadraticLandscape>(Point{2.0}, 1.0, 0.1);
  cluster::TraceClusterConfig cfg;
  cfg.ranks = 8;
  cfg.seed = 3;
  cluster::TraceCluster machine(land, cfg);
  FixedStrategy fx(Point{1.0});
  RoundEngineOptions opts;
  opts.width = 8;
  opts.record_series = false;
  RoundEngine engine(fx, opts);
  for (int i = 0; i < 5; ++i) engine.step(machine);
  const std::size_t before = allocation_count();
  for (int i = 0; i < 200; ++i) engine.step(machine);
  EXPECT_EQ(allocation_count(), before);
}

TEST(StepAllocation, PaddedEngineSteadyStateIsAllocationFree) {
  // The Harmony-style padded engine copy-assigns best_point() into
  // recycled slots; it must be just as quiet once warm.
  auto land = std::make_shared<QuadraticLandscape>(Point{4.0}, 1.0, 0.05);
  auto noise = std::make_shared<varmodel::ExponentialNoise>(0.1);
  cluster::SimulatedCluster machine(land, noise, {.ranks = 8, .seed = 21});
  FixedStrategy fx(Point{3.0});
  RoundEngineOptions opts;
  opts.width = 8;
  opts.pad_assignment = true;
  opts.record_series = false;
  RoundEngine engine(fx, opts);
  for (int i = 0; i < 5; ++i) engine.step(machine);
  const std::size_t before = allocation_count();
  for (int i = 0; i < 200; ++i) engine.step(machine);
  EXPECT_EQ(allocation_count(), before);
}

TEST(StepAllocation, ServingFetchReportPathIsAllocationFree) {
  // The serving hot path: once a Server's double buffers, rank states and
  // latency instruments are warm, fetch_into + report — including the
  // inline round close, strategy re-proposal and next-round publication —
  // must never touch the heap.  This is what lets the sharded server run
  // at memory-bandwidth speeds instead of malloc-lock speeds under load.
  obs::Registry registry;
  obs::FlightRecorder flight(1024);  // armed: every round records two events
  harmony::ServerOptions so;
  so.metrics = &registry;
  so.record_series = false;  // the cost series grows by design
  so.session = "alloc-serving";
  so.flight = &flight;
  harmony::Server server(std::make_unique<FixedStrategy>(Point{1.0, 2.0}),
                         16, so);
  Point scratch;
  for (int k = 0; k < 5; ++k) {  // warm buffers, scratch and instruments
    for (std::size_t r = 0; r < 16; ++r) {
      server.fetch_into(r, scratch);
      server.report(r, 1.0 + static_cast<double>(r));
    }
  }
  const std::size_t before = allocation_count();
  const std::uint64_t flight_before = flight.recorded();
  for (int k = 0; k < 200; ++k) {
    for (std::size_t r = 0; r < 16; ++r) {
      server.fetch_into(r, scratch);
      server.report(r, 1.0 + static_cast<double>(r));
    }
  }
  EXPECT_EQ(allocation_count(), before)
      << "steady-state fetch/report allocated on the heap";
  EXPECT_GE(flight.recorded() - flight_before, 400u)
      << "the flight recorder was not actually recording round events";
  EXPECT_EQ(server.rounds_completed(), 205u);
}

TEST(StepAllocation, NetServingFetchReportPathIsAllocationFree) {
  // The same steady-state contract across the wire: encode → send → epoll
  // → decode → try_fetch_into/report → encode reply → decode reply, with
  // BOTH the event-loop thread and the client thread sharing the counted
  // global allocator.  Once connection buffers, scratch frames and
  // instruments are warm, a fetch/report round trip must never touch the
  // heap on either side.
  obs::Registry registry;
  obs::FlightRecorder flight(1024);  // armed on both the session and the loop
  harmony::SessionManager manager;
  harmony::ServerOptions so;
  so.metrics = &registry;
  so.record_series = false;
  so.session = "alloc-net";
  so.flight = &flight;
  auto hosted = manager.create(
      "alloc-net", std::make_unique<FixedStrategy>(Point{1.0, 2.0}), 4, so);
  net::NetServerOptions no;
  no.metrics = &registry;
  no.flight = &flight;
  net::NetServer net(manager, no);
  std::thread loop([&net] { net.run(); });
  {
    net::ClientOptions co;
    co.port = net.port();
    co.metrics = &registry;
    net::HarmonyClient client(co);
    client.attach("alloc-net", 0);
    Point scratch;
    for (int k = 0; k < 5; ++k) {  // warm both sides' buffers
      for (std::uint32_t r = 0; r < 4; ++r) client.fetch_into(r, scratch);
      for (std::uint32_t r = 0; r < 4; ++r) client.report(r, 1.0 + r);
    }
    const std::size_t before = allocation_count();
    for (int k = 0; k < 200; ++k) {
      for (std::uint32_t r = 0; r < 4; ++r) client.fetch_into(r, scratch);
      for (std::uint32_t r = 0; r < 4; ++r) client.report(r, 1.0 + r);
    }
    EXPECT_EQ(allocation_count(), before)
        << "steady-state wire fetch/report allocated on the heap";
    client.detach(0);
  }
  net.stop();
  loop.join();
  EXPECT_EQ(hosted->rounds_completed(), 205u);
}

TEST(StepAllocation, WarmedReferenceInterpolationIsAllocationFree) {
  // interpolate_reference used to materialise an O(N) scratch vector per
  // query; the bounded-heap selection keeps the per-thread scratch at k
  // entries and reuses it, so a warmed query loop must be silent.
  const gs2::Gs2Surface surface;
  const auto space = gs2::gs2_space();
  const gs2::Database db = gs2::Database::measure(space, surface, {});
  const Point q1{16.2, 9.1, 4.7};
  const Point q2{33.3, 17.7, 40.1};
  double acc = db.interpolate_reference(q1);  // warm the scratch heap
  const std::size_t before = allocation_count();
  for (int i = 0; i < 100; ++i) {
    acc += db.interpolate_reference(i % 2 == 0 ? q1 : q2);
  }
  EXPECT_EQ(allocation_count(), before)
      << "warmed interpolate_reference allocated on the heap";
  EXPECT_GT(acc, 0.0);
}

TEST(StepAllocation, WarmedDatabaseLatticeMissIsAllocationFree) {
  // The lattice memo is one slot array sized when the index is built, so
  // after one warm-up miss per thread (the grid walk's window, distance
  // terms and k nearest are per-thread scratch) neither a cold lattice
  // miss — per-axis search, grid walk plus one slot store — nor a memo hit
  // may touch the heap, through clean_time or clean_times.  The scratch
  // grows to the largest k a thread has used, up to the spec's 64.
  const gs2::Gs2Surface surface;
  const auto space = gs2::gs2_space();
  const gs2::Database db = gs2::Database::measure(space, surface, {});
  util::Rng rng(5);
  std::vector<Point> fresh;  // distinct admissible points, none stored
  while (fresh.size() < 48) {
    Point x = space.random_point(rng);
    if (!db.exact(x) &&
        std::find(fresh.begin(), fresh.end(), x) == fresh.end()) {
      fresh.push_back(std::move(x));
    }
  }
  const std::span<const Point> warm(fresh.data(), 8);
  const std::span<const Point> scalar(fresh.data() + 8, 32);
  const std::span<const Point> batch(fresh.data() + 40, 8);
  std::vector<double> out(8);
  db.clean_times(warm, out);  // the warm-up misses: size this thread's heap
  double acc = 0.0;
  const std::size_t before = allocation_count();
  for (const Point& x : scalar) acc += db.clean_time(x);  // cold misses
  for (const Point& x : scalar) acc += db.clean_time(x);  // memo hits
  db.clean_times(batch, out);                             // cold misses
  db.clean_times(batch, out);                             // memo hits
  EXPECT_EQ(allocation_count(), before)
      << "warmed lattice misses or memo hits allocated on the heap";
  EXPECT_GT(acc + out[0], 0.0);

  const gs2::Database wide =
      gs2::Database::measure(space, surface, {.interpolation_neighbors = 64});
  acc = wide.clean_time(fresh[0]);  // grows this thread's scratch to k = 64
  const std::size_t wide_before = allocation_count();
  for (const Point& x : scalar) acc += wide.clean_time(x);
  EXPECT_EQ(allocation_count(), wide_before)
      << "warmed k = 64 lattice misses allocated on the heap";
  EXPECT_GT(acc, 0.0);
}

TEST(StepAllocation, RunStepWrapperMatchesRunStepInto) {
  // The allocating wrapper is a thin shim over run_step_into: identical
  // machines must produce bit-identical times through either entry point.
  auto land = std::make_shared<QuadraticLandscape>(Point{1.0, 2.0}, 2.0, 0.5);
  auto noise = std::make_shared<varmodel::ParetoNoise>(0.3, 1.7);
  cluster::SimulatedCluster a(land, noise, {.ranks = 4, .seed = 13});
  cluster::SimulatedCluster b(land, noise, {.ranks = 4, .seed = 13});
  const std::vector<Point> configs(4, Point{0.5, 1.5});
  std::vector<double> into(4);
  for (int s = 0; s < 3; ++s) {
    const std::vector<double> wrapped = a.run_step(configs);
    b.run_step_into({configs.data(), configs.size()},
                    {into.data(), into.size()});
    ASSERT_EQ(wrapped.size(), into.size());
    for (std::size_t i = 0; i < into.size(); ++i) {
      EXPECT_EQ(wrapped[i], into[i]) << "rank " << i << ", step " << s;
    }
  }
}

TEST(StepValidation, NonPositiveCleanTimeThrowsInRelease) {
  // The positivity guard moved out of assert() into the always-on cache
  // recompute: a broken landscape fails loudly in release builds too.
  auto bad = std::make_shared<core::FunctionLandscape>(
      "bad", [](const Point& x) { return x[0] < 0.0 ? -1.0 : 1.0; });
  cluster::SimulatedCluster machine(bad,
                                    std::make_shared<varmodel::NoNoise>(),
                                    {.ranks = 2, .seed = 1});
  std::vector<double> out(2);
  const std::vector<Point> good(2, Point{1.0});
  machine.run_step_into({good.data(), good.size()}, {out.data(), out.size()});
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  const std::vector<Point> evil(2, Point{-1.0});
  EXPECT_THROW(machine.run_step_into({evil.data(), evil.size()},
                                     {out.data(), out.size()}),
               std::domain_error);
  // The machine recovers once the landscape behaves again.
  machine.run_step_into({good.data(), good.size()}, {out.data(), out.size()});
  EXPECT_DOUBLE_EQ(out[1], 1.0);
}

TEST(StepValidation, TraceClusterRejectsNonPositiveCleanTime) {
  auto bad = std::make_shared<core::FunctionLandscape>(
      "zero", [](const Point&) { return 0.0; });
  cluster::TraceClusterConfig cfg;
  cfg.ranks = 2;
  cluster::TraceCluster machine(bad, cfg);
  std::vector<double> out(2);
  const std::vector<Point> configs(2, Point{0.0});
  EXPECT_THROW(machine.run_step_into({configs.data(), configs.size()},
                                     {out.data(), out.size()}),
               std::domain_error);
}

TEST(CleanTimeCache, ReplaysRepeatedBatches) {
  // Direct contract check: refresh() misses on first sight, hits on the
  // byte-identical repeat, and misses again on a different assignment.
  core::ParameterSpace space({core::Parameter::integer("x", 0, 10)});
  const gs2::Database db(
      space, {{Point{0.0}, 1.0}, {Point{6.0}, 42.0}},
      gs2::DatabaseOptions{.stride = 1, .interpolation_neighbors = 1});
  cluster::CleanTimeCache cache;
  const std::vector<Point> configs(3, Point{5.0});
  EXPECT_FALSE(cache.refresh(db, {configs.data(), configs.size()}));
  EXPECT_DOUBLE_EQ(cache.clean()[0], 42.0);
  EXPECT_TRUE(cache.refresh(db, {configs.data(), configs.size()}));
  EXPECT_DOUBLE_EQ(cache.clean()[2], 42.0);
  // A different point misses and recomputes.
  const std::vector<Point> near_zero(3, Point{2.0});
  EXPECT_FALSE(cache.refresh(db, {near_zero.data(), near_zero.size()}));
  EXPECT_DOUBLE_EQ(cache.clean()[0], 1.0);
  // A different assignment shape also misses.
  const std::vector<Point> other(2, Point{2.0});
  EXPECT_FALSE(cache.refresh(db, {other.data(), other.size()}));
}

TEST(StepAllocation, ProRoundsAreAllocationFreeOnceWarm) {
  // PRO is the paper's algorithm and Fig. 10's engine: every round —
  // reflect, expansion check, expand, shrink, the §3.2.2 probe and the
  // converged tail — runs in the batch's recycled storage.  Storage grows
  // to its high-water mark the first time a batch shape appears (the
  // largest is the first probe: 2N points plus the v^0 refresh slot), so
  // the warm-up is one whole session; start() then rewinds the strategy
  // onto its warm buffers and an identically seeded second session must
  // not allocate once the new engine's own buffers are warm (2 rounds).
  //
  // Named exception (not exercised here, see DESIGN.md §6): a probe that
  // escapes into a simplex with more vertices than the one it replaces
  // (keep_incumbent_after_probe) grows the vertex vector once.
  const auto space = gs2::gs2_space();
  auto db = std::make_shared<gs2::Database>(
      gs2::Database::measure(space, gs2::Gs2Surface{}, {}));
  auto noise = std::make_shared<varmodel::ParetoNoise>(0.2, 1.7);
  constexpr int kRounds = 120;
  constexpr int kEngineWarmup = 2;
  for (const char* spec : {"pro:k=3", "pro:refresh=0,k=3"}) {
    for (const std::size_t ranks : {std::size_t{6}, std::size_t{64}}) {
      SCOPED_TRACE(testing::Message() << spec << " at " << ranks << " ranks");
      const auto strategy = core::make_strategy(spec, space, 17);
      auto& pro = dynamic_cast<core::ProStrategy&>(*strategy);
      RoundEngineOptions opts;
      opts.width = ranks;
      opts.record_series = false;
      {
        cluster::SimulatedCluster warm(db, noise, {.ranks = ranks, .seed = 17});
        RoundEngine engine(pro, opts);
        for (int r = 0; r < kRounds; ++r) engine.step(warm);
        ASSERT_TRUE(pro.converged()) << "warm-up session never converged";
      }
      const std::size_t shrinks = pro.shrinks_accepted();
      const std::size_t moves =
          pro.reflections_accepted() + pro.expansions_accepted();
      const std::size_t probes = pro.probes_run();
      cluster::SimulatedCluster machine(db, noise,
                                        {.ranks = ranks, .seed = 17});
      RoundEngine engine(pro, opts);  // start(): a fresh search
      ASSERT_FALSE(pro.converged());
      std::size_t searching_rounds = 0, searching_allocs = 0;
      std::size_t converged_rounds = 0, converged_allocs = 0;
      int first_allocating_round = -1;
      for (int r = 0; r < kRounds; ++r) {
        const bool was_converged = pro.converged();
        const std::size_t before = allocation_count();
        engine.step(machine);
        const std::size_t n = allocation_count() - before;
        if (r < kEngineWarmup) continue;
        if (n != 0 && first_allocating_round < 0) first_allocating_round = r;
        (was_converged ? converged_rounds : searching_rounds) += 1;
        (was_converged ? converged_allocs : searching_allocs) += n;
      }
      EXPECT_EQ(searching_allocs, 0u)
          << "non-converged PRO rounds allocated; first at round "
          << first_allocating_round;
      EXPECT_EQ(converged_allocs, 0u)
          << "converged PRO rounds allocated; first at round "
          << first_allocating_round;
      // The measured session really searched, moved, shrank, probed and
      // then sat converged.
      EXPECT_GT(searching_rounds, 10u);
      EXPECT_GT(converged_rounds, 10u);
      EXPECT_GT(pro.shrinks_accepted(), shrinks);
      EXPECT_GT(pro.reflections_accepted() + pro.expansions_accepted(), moves);
      EXPECT_GT(pro.probes_run(), probes);
    }
  }
}

std::size_t optimizer_iterations(const core::TuningStrategy& s) {
  if (const auto* p = dynamic_cast<const core::ProStrategy*>(&s)) {
    return p->iterations();
  }
  if (const auto* p = dynamic_cast<const core::SroStrategy*>(&s)) {
    return p->iterations();
  }
  if (const auto* p = dynamic_cast<const core::NelderMeadStrategy*>(&s)) {
    return p->iterations();
  }
  return 0;
}

TEST(Strategy, RecycledBufferMatchesFreshBufferOverWholeSessions) {
  // Two identically seeded instances, one writing into a fresh empty vector
  // every round and one into a deliberately hostile recycled buffer:
  // oversized, with extra entries and Points of the wrong dimension.  The
  // assignments must agree every round and the sessions must end in the
  // same state.  racing and parallel_replicas produce slot maps shorter
  // than the rank count, so the incumbent padding is exercised too.
  const auto space = gs2::gs2_space();
  auto db = std::make_shared<gs2::Database>(
      gs2::Database::measure(space, gs2::Gs2Surface{}, {}));
  auto noise = std::make_shared<varmodel::ParetoNoise>(0.2, 1.7);
  for (const char* spec :
       {"pro", "pro:k=3", "pro:k=3,racing=1", "pro:k=3,replicas=1",
        "pro:k=2,keep=1,refresh=0", "sro:k=2", "nm:k=2", "random"}) {
    for (const std::size_t ranks : {std::size_t{8}, std::size_t{16}}) {
      SCOPED_TRACE(testing::Message() << spec << " at " << ranks << " ranks");
      const auto a = core::make_strategy(spec, space, 5);
      const auto b = core::make_strategy(spec, space, 5);
      a->start(ranks);
      b->start(ranks);
      cluster::SimulatedCluster machine(db, noise, {.ranks = ranks, .seed = 5});
      std::vector<Point> recycled;
      for (int round = 0; round < 150; ++round) {
        // Re-poison the buffer each round: stale extras, a wrong-sized
        // Point in front and an empty one behind.
        recycled.resize(ranks + 3, Point(7, -1.0));
        recycled.front().assign(1, 42.0);
        recycled.back().clear();
        std::vector<Point> configs;
        a->propose_into(configs);
        b->propose_into(recycled);
        ASSERT_EQ(configs, recycled) << "round " << round;
        const std::vector<double> times = machine.run_step(configs);
        a->observe(times);
        b->observe(times);
      }
      EXPECT_EQ(a->best_point(), b->best_point());
      EXPECT_EQ(a->best_estimate(), b->best_estimate());
      EXPECT_EQ(a->converged(), b->converged());
      EXPECT_EQ(optimizer_iterations(*a), optimizer_iterations(*b));
    }
  }
}

TEST(Strategy, FixedProposeIntoOverwritesRecycledBuffer) {
  FixedStrategy a(Point{1.0, 2.0}), b(Point{1.0, 2.0});
  a.start(5);
  b.start(5);
  std::vector<Point> fresh;
  a.propose_into(fresh);
  EXPECT_EQ(fresh, std::vector<Point>(5, Point{1.0, 2.0}));
  // Recycled buffers are overwritten completely, never appended to.
  std::vector<Point> recycled(7, Point{9.0});
  b.propose_into(recycled);
  EXPECT_EQ(fresh, recycled);
  recycled.push_back(Point{9.0});
  b.propose_into(recycled);
  EXPECT_EQ(fresh, recycled);
}

}  // namespace
}  // namespace protuner
