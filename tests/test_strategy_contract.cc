// Contract property tests, parameterized over EVERY tuning strategy in the
// library: admissibility of all proposals (also under adversarial times),
// full-width assignments, determinism, convergence freezing, session
// accounting, engine-driven sessions below 2N ranks and allocation-free
// warm rounds.  This TU replaces the global allocator
// (counting_allocator.h), so it must not be linked into anything else.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>

#include "cluster/simulated_cluster.h"
#include "cluster/trace_cluster.h"
#include "core/annealing.h"
#include "core/compass.h"
#include "core/fixed.h"
#include "core/genetic.h"
#include "core/landscape.h"
#include "core/nelder_mead.h"
#include "core/pro.h"
#include "core/random_search.h"
#include "core/round_engine.h"
#include "core/session.h"
#include "core/sro.h"
#include "core/strategy_spec.h"
#include "spec/spec.h"
#include "varmodel/pareto_noise.h"

#include "counting_allocator.h"

namespace protuner::core {
namespace {

ParameterSpace mixed_space() {
  return ParameterSpace({
      Parameter::integer("i", 0, 15),
      Parameter::discrete("d", {1.0, 2.0, 4.0, 8.0}),
      Parameter::continuous("c", -1.0, 1.0),
  });
}

using Factory = std::function<TuningStrategyPtr(const ParameterSpace&)>;

LandscapePtr test_landscape() {
  return std::make_shared<FunctionLandscape>("contract", [](const Point& x) {
    return 1.0 + 0.05 * (x[0] - 7.0) * (x[0] - 7.0) + 0.1 * x[1] +
           0.5 * x[2] * x[2];
  });
}

/// Every evaluation off the lower c bound is faster than all before it, so
/// each compass poll beats its incumbent: the step never halves, and the
/// incumbent steps c between 0 and -0.5 for as long as the session runs.
LandscapePtr ever_faster_landscape() {
  return std::make_shared<FunctionLandscape>(
      "ever-faster", [n = 0.0](const Point& x) mutable {
        return x[2] <= -1.0 ? 2.0 : 1.0 / ++n;
      });
}

struct StrategyCase {
  const char* label;
  Factory make;
  /// The landscape WarmRoundsAreAllocationFree times proposals on.
  LandscapePtr (*warm_landscape)() = test_landscape;
};

class StrategyContract : public ::testing::TestWithParam<StrategyCase> {};

TEST_P(StrategyContract, AllProposalsAdmissibleAndFullWidth) {
  const auto space = mixed_space();
  auto strategy = GetParam().make(space);
  const auto land = test_landscape();
  constexpr std::size_t kRanks = 8;
  strategy->start(kRanks);
  for (int step = 0; step < 120; ++step) {
    const StepProposal p = strategy->propose();
    ASSERT_FALSE(p.configs.empty()) << GetParam().label;
    ASSERT_LE(p.configs.size(), kRanks) << GetParam().label;
    std::vector<double> times;
    for (const auto& c : p.configs) {
      ASSERT_TRUE(space.admissible(c))
          << GetParam().label << " step " << step;
      times.push_back(land->clean_time(c));
    }
    strategy->observe(times);
    ASSERT_TRUE(space.admissible(strategy->best_point()))
        << GetParam().label;
  }
}

TEST_P(StrategyContract, DeterministicGivenSeeds) {
  const auto space = mixed_space();
  const auto land = test_landscape();
  auto noise = std::make_shared<varmodel::ParetoNoise>(0.2, 1.7);

  const auto run_once = [&] {
    cluster::SimulatedCluster machine(land, noise, {.ranks = 6, .seed = 77});
    auto strategy = GetParam().make(space);
    return run_session(*strategy, machine, {.steps = 80});
  };
  const SessionResult a = run_once();
  const SessionResult b = run_once();
  EXPECT_EQ(a.total_time, b.total_time) << GetParam().label;
  EXPECT_EQ(a.best, b.best) << GetParam().label;
  EXPECT_EQ(a.step_costs, b.step_costs) << GetParam().label;
}

TEST_P(StrategyContract, ConvergedImpliesFrozenProposals) {
  const auto space = mixed_space();
  const auto land = test_landscape();
  cluster::SimulatedCluster machine(
      land, std::make_shared<varmodel::NoNoise>(), {.ranks = 8, .seed = 5});
  auto strategy = GetParam().make(space);
  (void)run_session(*strategy, machine, {.steps = 500});
  if (!strategy->converged()) GTEST_SKIP() << "strategy does not certify";
  const Point frozen = strategy->best_point();
  for (int i = 0; i < 5; ++i) {
    const StepProposal p = strategy->propose();
    for (const auto& c : p.configs) EXPECT_EQ(c, frozen) << GetParam().label;
    strategy->observe(std::vector<double>(p.configs.size(), 1.0));
  }
}

TEST_P(StrategyContract, SessionAccountingIsSumOfMaxima) {
  const auto space = mixed_space();
  const auto land = test_landscape();
  auto noise = std::make_shared<varmodel::ParetoNoise>(0.1, 1.7);
  cluster::SimulatedCluster machine(land, noise, {.ranks = 6, .seed = 9});
  auto strategy = GetParam().make(space);
  const SessionResult r = run_session(*strategy, machine, {.steps = 60});
  double sum = 0.0;
  for (double c : r.step_costs) sum += c;
  EXPECT_NEAR(r.total_time, sum, 1e-9) << GetParam().label;
  EXPECT_NEAR(r.ntt, (1.0 - noise->rho()) * r.total_time, 1e-9)
      << GetParam().label;
  EXPECT_EQ(r.step_costs.size(), 60u);
}

// A manual RoundEngine step loop must reproduce run_session exactly — the
// whole point of the extraction is that every driver shares one lifecycle.
TEST_P(StrategyContract, EngineLoopMatchesRunSessionOnSimulatedCluster) {
  const auto space = mixed_space();
  const auto land = test_landscape();
  auto noise = std::make_shared<varmodel::ParetoNoise>(0.2, 1.7);
  constexpr std::size_t kSteps = 60;

  cluster::SimulatedCluster machine_a(land, noise, {.ranks = 6, .seed = 21});
  auto strategy_a = GetParam().make(space);
  const SessionResult via_session =
      run_session(*strategy_a, machine_a, {.steps = kSteps});

  cluster::SimulatedCluster machine_b(land, noise, {.ranks = 6, .seed = 21});
  auto strategy_b = GetParam().make(space);
  RoundEngineOptions eo;
  eo.width = 6;
  RoundEngine engine(*strategy_b, eo);
  for (std::size_t k = 0; k < kSteps; ++k) engine.step(machine_b);
  const SessionResult via_engine = engine.result();

  EXPECT_EQ(via_engine.best, via_session.best) << GetParam().label;
  EXPECT_EQ(via_engine.total_time, via_session.total_time)
      << GetParam().label;
  EXPECT_EQ(via_engine.step_costs, via_session.step_costs)
      << GetParam().label;
  EXPECT_EQ(via_engine.convergence_step, via_session.convergence_step)
      << GetParam().label;
}

TEST_P(StrategyContract, EngineLoopMatchesRunSessionOnTraceCluster) {
  const auto space = mixed_space();
  const auto land = test_landscape();
  constexpr std::size_t kSteps = 60;
  cluster::TraceClusterConfig cfg;
  cfg.ranks = 6;
  cfg.seed = 33;

  cluster::TraceCluster machine_a(land, cfg);
  auto strategy_a = GetParam().make(space);
  const SessionResult via_session =
      run_session(*strategy_a, machine_a, {.steps = kSteps});

  cluster::TraceCluster machine_b(land, cfg);
  auto strategy_b = GetParam().make(space);
  RoundEngineOptions eo;
  eo.width = 6;
  RoundEngine engine(*strategy_b, eo);
  for (std::size_t k = 0; k < kSteps; ++k) engine.step(machine_b);
  const SessionResult via_engine = engine.result();

  EXPECT_EQ(via_engine.best, via_session.best) << GetParam().label;
  EXPECT_EQ(via_engine.total_time, via_session.total_time)
      << GetParam().label;
  EXPECT_EQ(via_engine.step_costs, via_session.step_costs)
      << GetParam().label;
}

// Fuzz the propose_into contract: recycled buffers are OVERWRITTEN, never
// appended to, whatever junk they held before the call.  An identically
// built twin writing into a fresh empty vector every step must see exactly
// the same assignments.
TEST_P(StrategyContract, ProposeIntoOverwritesNeverAppends) {
  const auto space = mixed_space();
  const auto land = test_landscape();
  auto via_fresh = GetParam().make(space);
  auto via_recycled = GetParam().make(space);
  constexpr std::size_t kRanks = 8;
  via_fresh->start(kRanks);
  via_recycled->start(kRanks);
  std::vector<Point> buf;
  for (int step = 0; step < 80; ++step) {
    // Dirty the recycled buffer with garbage of a step-dependent size:
    // sometimes empty, sometimes longer than any proposal, sometimes with
    // wrong-dimension points.
    buf.assign(static_cast<std::size_t>(step * 5) % 13,
               Point{1e9, -1e9, 7.0, 8.0});
    std::vector<Point> expected;
    via_fresh->propose_into(expected);
    via_recycled->propose_into(buf);
    ASSERT_EQ(buf, expected) << GetParam().label << " step " << step;
    std::vector<double> times;
    for (const auto& c : expected) times.push_back(land->clean_time(c));
    via_fresh->observe(times);
    via_recycled->observe(times);
  }
}

TEST_P(StrategyContract, ImprovesOrMatchesCenterNoiseFree) {
  const auto space = mixed_space();
  const auto land = test_landscape();
  cluster::SimulatedCluster machine(
      land, std::make_shared<varmodel::NoNoise>(), {.ranks = 8, .seed = 10});
  auto strategy = GetParam().make(space);
  const SessionResult r = run_session(*strategy, machine, {.steps = 400});
  EXPECT_LE(r.best_clean, land->clean_time(space.center()) + 1e-9)
      << GetParam().label;
}

// The engine recycles one proposal buffer, so once a strategy has run a
// whole session at a width (every batch shape at its high-water mark) and
// start() has rewound it, no propose_into + observe round of a second
// session may touch the heap: searching, sampling, probing and converged.
TEST_P(StrategyContract, WarmRoundsAreAllocationFree) {
  const auto space = mixed_space();
  const auto land = GetParam().warm_landscape();
  constexpr int kRounds = 600;
  for (const std::size_t ranks : {std::size_t{1}, std::size_t{5},
                                  std::size_t{6}, std::size_t{64}}) {
    auto strategy = GetParam().make(space);
    std::vector<Point> buf;
    std::vector<double> times;
    std::size_t allocations = 0;
    int first_allocating = -1;
    const auto session = [&] {
      strategy->start(ranks);
      for (int r = 0; r < kRounds; ++r) {
        const std::size_t before = allocation_count();
        strategy->propose_into(buf);
        times.resize(buf.size());
        for (std::size_t i = 0; i < buf.size(); ++i) {
          times[i] = land->clean_time(buf[i]);
        }
        strategy->observe(times);
        const std::size_t n = allocation_count() - before;
        if (n != 0) {
          allocations += n;
          if (first_allocating < 0) first_allocating = r;
        }
      }
    };
    session();  // warm-up
    allocations = 0;
    first_allocating = -1;
    session();
    EXPECT_EQ(allocations, 0u) << GetParam().label << " at " << ranks
                               << " ranks, first in round "
                               << first_allocating;
  }
}

// Every strategy runs whole engine-driven sessions below 2N ranks (2N = 6
// on mixed_space()): a strategy whose batch outgrows the machine measures
// it in waves of at most `ranks` points instead of proposing past the
// engine's width.
TEST_P(StrategyContract, RunsThroughRoundEngineBelowTwoNRanks) {
  const auto space = mixed_space();
  const auto land = test_landscape();
  auto noise = std::make_shared<varmodel::ParetoNoise>(0.2, 1.7);
  constexpr std::size_t kSteps = 150;
  for (const std::size_t ranks : {std::size_t{1}, std::size_t{2},
                                  std::size_t{5}}) {
    cluster::SimulatedCluster machine(land, noise,
                                      {.ranks = ranks, .seed = 41});
    auto strategy = GetParam().make(space);
    const SessionResult r = run_session(*strategy, machine, {.steps = kSteps});
    EXPECT_EQ(r.step_costs.size(), kSteps)
        << GetParam().label << " at " << ranks << " ranks";
    EXPECT_TRUE(std::isfinite(r.total_time))
        << GetParam().label << " at " << ranks << " ranks";
    EXPECT_TRUE(space.admissible(r.best))
        << GetParam().label << " at " << ranks << " ranks";
  }
}

// Times at the edges of the double range must not push a proposal off the
// space or to a non-finite coordinate.  Rounds cycle through pairwise ties,
// 1e-300-scale, 1e300-scale and all-equal times, so every strategy also
// sees the jumps between them (ratios near 1e600 overflow to inf).
TEST_P(StrategyContract, AdversarialTimesKeepProposalsFiniteAndAdmissible) {
  const auto space = mixed_space();
  for (const std::size_t ranks : {std::size_t{1}, std::size_t{8}}) {
    auto strategy = GetParam().make(space);
    strategy->start(ranks);
    std::vector<Point> buf;
    std::vector<double> times;
    for (int round = 0; round < 400; ++round) {
      strategy->propose_into(buf);
      ASSERT_FALSE(buf.empty()) << GetParam().label;
      for (const Point& c : buf) {
        for (const double v : c) {
          ASSERT_TRUE(std::isfinite(v))
              << GetParam().label << " at " << ranks << " ranks, round "
              << round;
        }
        ASSERT_TRUE(space.admissible(c))
            << GetParam().label << " at " << ranks << " ranks, round "
            << round;
      }
      times.resize(buf.size());
      for (std::size_t i = 0; i < times.size(); ++i) {
        const double step = static_cast<double>(i / 2 + 1);
        switch (round % 4) {
          case 0: times[i] = step; break;            // ties in pairs
          case 1: times[i] = 1e-300 * step; break;
          case 2: times[i] = 1e300 * step; break;
          default: times[i] = 1.0; break;            // all equal
        }
      }
      strategy->observe(times);
    }
    EXPECT_TRUE(space.admissible(strategy->best_point()))
        << GetParam().label << " at " << ranks << " ranks";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyContract,
    ::testing::Values(
        StrategyCase{"pro",
                     [](const ParameterSpace& s) -> TuningStrategyPtr {
                       return std::make_unique<ProStrategy>(s, ProOptions{});
                     }},
        StrategyCase{"pro_k3",
                     [](const ParameterSpace& s) -> TuningStrategyPtr {
                       ProOptions o;
                       o.samples = 3;
                       return std::make_unique<ProStrategy>(s, o);
                     }},
        StrategyCase{"pro_minimal_stale",
                     [](const ParameterSpace& s) -> TuningStrategyPtr {
                       ProOptions o;
                       o.use_2n_simplex = false;
                       o.refresh_best = false;
                       return std::make_unique<ProStrategy>(s, o);
                     }},
        StrategyCase{"pro_adaptive",
                     [](const ParameterSpace& s) -> TuningStrategyPtr {
                       ProOptions o;
                       o.adaptive_samples = true;
                       return std::make_unique<ProStrategy>(s, o);
                     }},
        StrategyCase{"pro_replicas",
                     [](const ParameterSpace& s) -> TuningStrategyPtr {
                       ProOptions o;
                       o.samples = 2;
                       o.parallel_replicas = true;
                       return std::make_unique<ProStrategy>(s, o);
                     }},
        StrategyCase{"sro",
                     [](const ParameterSpace& s) -> TuningStrategyPtr {
                       return std::make_unique<SroStrategy>(s);
                     }},
        StrategyCase{"nelder_mead",
                     [](const ParameterSpace& s) -> TuningStrategyPtr {
                       NelderMeadOptions o;
                       o.max_iterations = 120;
                       return std::make_unique<NelderMeadStrategy>(s, o);
                     }},
        StrategyCase{"compass",
                     [](const ParameterSpace& s) -> TuningStrategyPtr {
                       return std::make_unique<CompassStrategy>(s);
                     }},
        // Two samples per poll, timed on a landscape where every poll
        // succeeds: compass polls every round of a warm session instead of
        // idling in a converged tail.
        StrategyCase{"compass_k2",
                     [](const ParameterSpace& s) -> TuningStrategyPtr {
                       return std::make_unique<CompassStrategy>(s, 2);
                     },
                     ever_faster_landscape},
        StrategyCase{"annealing",
                     [](const ParameterSpace& s) -> TuningStrategyPtr {
                       AnnealingOptions o;
                       o.seed = 123;
                       return std::make_unique<AnnealingStrategy>(s, o);
                     }},
        StrategyCase{"annealing_migrate",
                     [](const ParameterSpace& s) -> TuningStrategyPtr {
                       AnnealingOptions o;
                       o.migrate_every = 25;
                       o.seed = 123;
                       return std::make_unique<AnnealingStrategy>(s, o);
                     }},
        StrategyCase{"genetic",
                     [](const ParameterSpace& s) -> TuningStrategyPtr {
                       return std::make_unique<GeneticStrategy>(s, 123);
                     }},
        StrategyCase{"random",
                     [](const ParameterSpace& s) -> TuningStrategyPtr {
                       return std::make_unique<RandomSearchStrategy>(s, 123);
                     }},
        StrategyCase{"fixed",
                     [](const ParameterSpace& s) -> TuningStrategyPtr {
                       return std::make_unique<FixedStrategy>(s.center());
                     }},
        // Spec-constructed twin: the factory path must satisfy the same
        // contracts as direct construction.
        StrategyCase{"spec_anneal",
                     [](const ParameterSpace& s) -> TuningStrategyPtr {
                       return make_strategy("anneal:decay=0.985,migrate=25",
                                            s, 123);
                     }}),
    [](const ::testing::TestParamInfo<StrategyCase>& info) {
      return info.param.label;
    });

// ------------------------------------------------------- spec round trips

// The registry's design law: parse(to_string(s)) == s, and every entry's
// documented example constructs a working strategy whose first proposal is
// admissible.  Covers every registered strategy.
TEST(StrategySpecs, EveryRegisteredExampleRoundTripsAndConstructs) {
  const auto space = mixed_space();
  const auto& reg = strategy_registry();
  EXPECT_EQ(reg.entries().size(), 8u);
  for (const auto& entry : reg.entries()) {
    SCOPED_TRACE(entry.name);
    const spec::Spec parsed = spec::parse(entry.example);
    EXPECT_EQ(spec::parse(spec::to_string(parsed)), parsed)
        << "round trip failed for " << entry.example;
    auto strategy = make_strategy(parsed, space, 7);
    ASSERT_NE(strategy, nullptr);
    strategy->start(4);
    const StepProposal p = strategy->propose();
    ASSERT_FALSE(p.configs.empty());
    for (const auto& c : p.configs) EXPECT_TRUE(space.admissible(c));
  }
}

// Bare names (no options) must construct with defaults for every entry and
// every alias.
TEST(StrategySpecs, BareNamesAndAliasesConstruct) {
  const auto space = mixed_space();
  for (const auto& entry : strategy_registry().entries()) {
    for (std::string name : entry.aliases) {
      auto s = make_strategy(name, space, 7);
      ASSERT_NE(s, nullptr) << name;
    }
    auto s = make_strategy(entry.name, space, 7);
    ASSERT_NE(s, nullptr) << entry.name;
  }
}

}  // namespace
}  // namespace protuner::core
