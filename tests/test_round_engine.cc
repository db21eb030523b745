// Tests for core::RoundEngine: the extracted round lifecycle state machine
// every driver (run_session, harmony::Server, benches) advances through.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "cluster/simulated_cluster.h"
#include "core/fixed.h"
#include "core/landscape.h"
#include "core/pro.h"
#include "core/round_engine.h"
#include "core/session.h"
#include "obs/metrics.h"
#include "varmodel/noise_model.h"

namespace protuner {
namespace {

using core::EngineError;
using core::Point;
using core::RoundEngine;
using core::RoundEngineOptions;
using core::RoundPhase;

/// Records every span passed to observe() so tests can assert on the
/// proposal-order remapping the engine performs.
class SpyStrategy final : public core::TuningStrategy {
 public:
  explicit SpyStrategy(std::vector<Point> proposal)
      : proposal_(std::move(proposal)), best_(proposal_.front()) {}

  void start(std::size_t) override {}
  void propose_into(std::vector<Point>& out) override { out = proposal_; }
  void observe(std::span<const double> times) override {
    observed.emplace_back(times.begin(), times.end());
  }
  const Point& best_point() const override { return best_; }
  double best_estimate() const override { return 0.0; }
  bool converged() const override { return false; }
  std::string name() const override { return "Spy"; }

  std::vector<std::vector<double>> observed;

 private:
  std::vector<Point> proposal_;
  Point best_;
};

RoundEngineOptions padded(std::size_t width) {
  RoundEngineOptions o;
  o.width = width;
  o.pad_assignment = true;
  return o;
}

cluster::SimulatedCluster clean_cluster(std::size_t ranks,
                                        double value = 2.0) {
  auto land = std::make_shared<core::FunctionLandscape>(
      "flat", [value](const Point&) { return value; });
  return cluster::SimulatedCluster(
      land, std::make_shared<varmodel::NoNoise>(), {.ranks = ranks});
}

// ------------------------------------------------------- state machine

TEST(RoundEngine, PhasesAdvanceAssigningCollectingAssigning) {
  core::FixedStrategy fixed(Point{1.0});
  RoundEngine engine(fixed, padded(2));
  EXPECT_EQ(engine.phase(), RoundPhase::kAssigning);

  const auto assignment = engine.open_round();
  EXPECT_EQ(engine.phase(), RoundPhase::kCollecting);
  ASSERT_EQ(assignment.size(), 2u);
  EXPECT_EQ(engine.pending(), 2u);
  EXPECT_FALSE(engine.complete());

  engine.submit(0, 1.0);
  EXPECT_EQ(engine.pending(), 1u);
  engine.submit(1, 3.0);
  ASSERT_TRUE(engine.complete());

  EXPECT_DOUBLE_EQ(engine.close_round(), 3.0);  // T_k = max (Eq. 1)
  EXPECT_EQ(engine.phase(), RoundPhase::kAssigning);
  EXPECT_EQ(engine.rounds_completed(), 1u);
  EXPECT_DOUBLE_EQ(engine.total_time(), 3.0);   // Eq. 2
}

TEST(RoundEngine, MisuseIsALoudEngineError) {
  core::FixedStrategy fixed(Point{1.0});
  RoundEngine engine(fixed, padded(2));

  // Collecting-phase calls before any round is open.
  EXPECT_THROW(engine.submit(0, 1.0), EngineError);
  EXPECT_THROW((void)engine.assignment(), EngineError);
  EXPECT_THROW((void)engine.assignment_for(0), EngineError);
  EXPECT_THROW((void)engine.close_round(), EngineError);
  EXPECT_THROW((void)engine.impute_missing(), EngineError);

  engine.open_round();
  EXPECT_THROW((void)engine.open_round(), EngineError);  // already open
  EXPECT_THROW(engine.submit(2, 1.0), EngineError);      // out of range
  engine.submit(0, 1.0);
  EXPECT_THROW(engine.submit(0, 2.0), EngineError);      // double submit
  EXPECT_THROW((void)engine.close_round(), EngineError); // incomplete
  EXPECT_THROW(engine.deactivate(9), EngineError);
  EXPECT_THROW(engine.reactivate(9), EngineError);
}

TEST(RoundEngine, RejectsZeroWidth) {
  core::FixedStrategy fixed(Point{1.0});
  EXPECT_THROW(RoundEngine(fixed, padded(0)), EngineError);
}

TEST(RoundEngine, SubmitRejectsNonFiniteAndNegativeTimes) {
  // A NaN, infinite or negative time is refused before any slot state
  // changes: the round stays open with the same slots pending, and
  // Total_Time is untouched.
  core::FixedStrategy fixed(Point{1.0});
  RoundEngine engine(fixed, padded(2));
  engine.open_round();
  engine.submit_all(std::vector<double>{1.0, 2.0});
  engine.close_round();
  ASSERT_DOUBLE_EQ(engine.total_time(), 2.0);

  engine.open_round();
  engine.submit(0, 1.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf, -1.0, -1e-300}) {
    SCOPED_TRACE(testing::Message() << "time " << bad);
    EXPECT_THROW(engine.submit(1, bad), EngineError);
    EXPECT_EQ(engine.phase(), RoundPhase::kCollecting);
    EXPECT_EQ(engine.pending(), 1u);
    EXPECT_FALSE(engine.submitted(1));
    EXPECT_DOUBLE_EQ(engine.total_time(), 2.0);
  }
  engine.submit(1, 0.0);  // zero is a valid time
  EXPECT_DOUBLE_EQ(engine.close_round(), 1.0);
  EXPECT_DOUBLE_EQ(engine.total_time(), 3.0);

  // submit_all checks every time before it records the first one.
  engine.open_round();
  EXPECT_THROW(engine.submit_all(std::vector<double>{1.0, nan}), EngineError);
  EXPECT_EQ(engine.pending(), 2u);
  EXPECT_FALSE(engine.submitted(0));
  engine.submit_all(std::vector<double>{1.0, 4.0});
  EXPECT_DOUBLE_EQ(engine.close_round(), 4.0);
  EXPECT_DOUBLE_EQ(engine.total_time(), 7.0);
}

// -------------------------------------------------- parity with sessions

TEST(RoundEngine, ManualStepLoopMatchesRunSession) {
  const core::ParameterSpace space({core::Parameter::integer("i", 0, 15),
                                    core::Parameter::integer("j", 0, 15)});
  auto land = std::make_shared<core::QuadraticLandscape>(Point{4.0, 11.0},
                                                         1.0, 0.3);

  auto machine_a = cluster::SimulatedCluster(
      land, std::make_shared<varmodel::NoNoise>(), {.ranks = 6, .seed = 7});
  core::ProStrategy pro_a(space, {});
  const core::SessionResult via_session =
      core::run_session(pro_a, machine_a, {.steps = 80});

  auto machine_b = cluster::SimulatedCluster(
      land, std::make_shared<varmodel::NoNoise>(), {.ranks = 6, .seed = 7});
  core::ProStrategy pro_b(space, {});
  RoundEngineOptions o;
  o.width = 6;
  RoundEngine engine(pro_b, o);
  for (int k = 0; k < 80; ++k) engine.step(machine_b);
  const core::SessionResult via_engine = engine.result();

  EXPECT_EQ(via_engine.best, via_session.best);
  EXPECT_DOUBLE_EQ(via_engine.total_time, via_session.total_time);
  EXPECT_EQ(via_engine.step_costs, via_session.step_costs);
  EXPECT_EQ(via_engine.cumulative, via_session.cumulative);
  EXPECT_EQ(via_engine.convergence_step, via_session.convergence_step);
}

// ----------------------------------------------------------- padded mode

TEST(RoundEngine, PaddedModeRunsBestPointOnExtraRanks) {
  // One proposed config, width 3: slots 1 and 2 run the best point, their
  // times count toward T_k but only slot 0's time reaches the strategy.
  SpyStrategy spy({Point{42.0}});
  RoundEngine engine(spy, padded(3));

  const auto assignment = engine.open_round();
  ASSERT_EQ(assignment.size(), 3u);
  EXPECT_EQ(assignment[0], (Point{42.0}));
  EXPECT_EQ(assignment[1], spy.best_point());
  EXPECT_EQ(assignment[2], spy.best_point());

  engine.submit_all(std::vector<double>{1.0, 9.0, 3.0});
  EXPECT_DOUBLE_EQ(engine.close_round(), 9.0);  // max over *all* slots
  ASSERT_EQ(spy.observed.size(), 1u);
  EXPECT_EQ(spy.observed[0], (std::vector<double>{1.0}));
}

TEST(RoundEngine, UnpaddedModePublishesProposalVerbatim) {
  SpyStrategy spy({Point{1.0}, Point{2.0}});
  RoundEngineOptions o;
  o.width = 8;  // strategy only proposes 2; unpadded assignment has 2 slots
  RoundEngine engine(spy, o);
  const auto assignment = engine.open_round();
  ASSERT_EQ(assignment.size(), 2u);
  engine.submit_all(std::vector<double>{5.0, 4.0});
  EXPECT_DOUBLE_EQ(engine.close_round(), 5.0);
  EXPECT_EQ(spy.observed[0], (std::vector<double>{5.0, 4.0}));
}

// ----------------------------------------------------------- imputation

TEST(RoundEngine, ImputeMissingUsesMaxObservedTimesPenalty) {
  core::FixedStrategy fixed(Point{1.0});
  RoundEngine engine(fixed, padded(4));
  engine.open_round();
  engine.submit(0, 1.0);
  engine.submit(1, 2.0);
  engine.submit(2, 3.0);

  const std::vector<std::size_t> imputed = engine.impute_missing();
  EXPECT_EQ(imputed, (std::vector<std::size_t>{3}));
  ASSERT_TRUE(engine.complete());
  EXPECT_DOUBLE_EQ(engine.close_round(), 4.5);  // 3.0 × 1.5 penalty
}

TEST(RoundEngine, InstrumentsRecordRoundCostAndImputedSlots) {
  // The engine's own instruments are the one per-step telemetry source:
  // one round, its T_k, and how many slots imputation filled.
  obs::Registry registry;
  RoundEngineOptions options = padded(4);
  options.metrics = &registry;
  options.session = "probe";
  core::FixedStrategy fixed(Point{1.0});
  RoundEngine engine(fixed, options);
  engine.open_round();
  engine.submit(0, 1.0);
  engine.submit(2, 2.0);
  const std::vector<std::size_t> imputed = engine.impute_missing();
  ASSERT_EQ(imputed.size(), 2u);
  const double cost = engine.close_round();
  EXPECT_DOUBLE_EQ(cost, 3.0);  // 2.0 × 1.5 penalty

  const obs::Labels labels{{"session", "probe"}};
  EXPECT_EQ(registry.counter("protuner_rounds_total", {}, labels).value(), 1u);
  const obs::HistogramSnapshot round_cost =
      registry.histogram("protuner_round_cost", {}, labels).snapshot();
  EXPECT_EQ(round_cost.count, 1u);
  EXPECT_DOUBLE_EQ(round_cost.max, cost);
  EXPECT_EQ(
      registry.counter("protuner_imputed_slots_total", {}, labels).value(),
      imputed.size());
}

TEST(RoundEngine, ImputeFallsBackToPreviousRoundCost) {
  core::FixedStrategy fixed(Point{1.0});
  RoundEngine engine(fixed, padded(2));
  engine.open_round();
  engine.submit_all(std::vector<double>{1.0, 2.0});
  engine.close_round();  // T_1 = 2.0

  engine.open_round();   // nobody reports this round
  const std::vector<std::size_t> imputed = engine.impute_missing();
  EXPECT_EQ(imputed.size(), 2u);
  EXPECT_DOUBLE_EQ(engine.close_round(), 3.0);  // 2.0 × 1.5
}

TEST(RoundEngine, ImputeWithNothingObservedEverIsAnError) {
  core::FixedStrategy fixed(Point{1.0});
  RoundEngine engine(fixed, padded(2));
  engine.open_round();
  EXPECT_THROW((void)engine.impute_missing(), EngineError);
}

TEST(RoundEngine, ImputeOnCompleteRoundIsANoOp) {
  core::FixedStrategy fixed(Point{1.0});
  RoundEngine engine(fixed, padded(1));
  engine.open_round();
  engine.submit(0, 1.0);
  EXPECT_TRUE(engine.impute_missing().empty());
}

// ------------------------------------------------------- rank membership

TEST(RoundEngine, DeactivateShrinksTheNextRound) {
  core::FixedStrategy fixed(Point{1.0});
  RoundEngine engine(fixed, padded(4));
  engine.open_round();
  engine.submit_all(std::vector<double>{1.0, 2.0, 3.0, 4.0});
  engine.close_round();

  engine.deactivate(2);
  EXPECT_EQ(engine.active_count(), 3u);
  engine.open_round();
  EXPECT_FALSE(engine.expected(2));  // placeholder slot, not participating
  EXPECT_EQ(engine.pending(), 3u);
  engine.submit(0, 1.0);
  engine.submit(1, 2.0);
  EXPECT_THROW(engine.submit(2, 99.0), EngineError);
  engine.submit(3, 3.0);
  EXPECT_DOUBLE_EQ(engine.close_round(), 3.0);  // slot 2 excluded from T_k

  engine.reactivate(2);
  engine.open_round();
  EXPECT_TRUE(engine.expected(2));
  EXPECT_EQ(engine.pending(), 4u);
  engine.submit_all(std::vector<double>{1.0, 1.0, 8.0, 1.0});
  EXPECT_DOUBLE_EQ(engine.close_round(), 8.0);
}

TEST(RoundEngine, DroppedSlotRemapsProposalAndImputesUnassignedConfig) {
  // Width 4, 4 proposed configs, slot 0 dropped: configs 0..2 land on
  // slots 1..3 and config 3 has no rank to run it — the strategy must
  // still receive 4 times, the last one imputed (max observed × penalty).
  SpyStrategy spy({Point{0.0}, Point{1.0}, Point{2.0}, Point{3.0}});
  RoundEngine engine(spy, padded(4));
  engine.deactivate(0);

  const auto assignment = engine.open_round();
  EXPECT_EQ(assignment[1], (Point{0.0}));
  EXPECT_EQ(assignment[2], (Point{1.0}));
  EXPECT_EQ(assignment[3], (Point{2.0}));

  engine.submit(1, 5.0);
  engine.submit(2, 6.0);
  engine.submit(3, 4.0);
  engine.close_round();

  ASSERT_EQ(spy.observed.size(), 1u);
  EXPECT_EQ(spy.observed[0], (std::vector<double>{5.0, 6.0, 4.0, 9.0}));
}

// ------------------------------------------------- observers and results

TEST(RoundEngine, ObserverSeesEveryRoundAndFirstConvergence) {
  class Watcher final : public core::SessionObserver {
   public:
    void on_step(std::size_t step, std::span<const Point> configs,
                 std::span<const double> times, double cost) override {
      EXPECT_EQ(step, steps);  // 0-based round index
      EXPECT_EQ(configs.size(), 3u);
      EXPECT_EQ(times.size(), 3u);
      last_cost = cost;
      ++steps;
    }
    void on_converged(std::size_t step, const Point&) override {
      ++converged_fires;
      converged_at = step;
    }
    std::size_t steps = 0;
    std::size_t converged_fires = 0;
    std::size_t converged_at = 0;
    double last_cost = 0.0;
  } watcher;

  core::FixedStrategy fixed(Point{1.0});  // converged() is always true
  RoundEngineOptions o = padded(3);
  o.observer = &watcher;
  RoundEngine engine(fixed, o);
  for (int k = 0; k < 3; ++k) {
    engine.open_round();
    engine.submit_all(std::vector<double>{1.0, 2.0, 3.0});
    engine.close_round();
  }
  EXPECT_EQ(watcher.steps, 3u);
  EXPECT_DOUBLE_EQ(watcher.last_cost, 3.0);
  EXPECT_EQ(watcher.converged_fires, 1u);  // first convergence only
  EXPECT_EQ(watcher.converged_at, 1u);     // 1-based round of convergence
  EXPECT_EQ(engine.convergence_round(), std::optional<std::size_t>(1));
}

TEST(RoundEngine, ResultSnapshotsAccounting) {
  core::FixedStrategy fixed(Point{7.0});
  auto machine = clean_cluster(2, 2.5);
  RoundEngine engine(fixed, padded(2));
  for (int k = 0; k < 4; ++k) engine.step(machine);

  const core::SessionResult r = engine.result();
  EXPECT_EQ(r.steps, 4u);
  EXPECT_DOUBLE_EQ(r.total_time, 10.0);
  EXPECT_EQ(r.step_costs, (std::vector<double>{2.5, 2.5, 2.5, 2.5}));
  EXPECT_EQ(r.cumulative, (std::vector<double>{2.5, 5.0, 7.5, 10.0}));
  EXPECT_EQ(r.best, (Point{7.0}));
  ASSERT_TRUE(r.converged());
  EXPECT_EQ(*r.convergence_step, 1u);
}

TEST(RoundEngine, RecordSeriesOffKeepsTotalsOnly) {
  core::FixedStrategy fixed(Point{1.0});
  RoundEngineOptions o = padded(2);
  o.record_series = false;
  RoundEngine engine(fixed, o);
  auto machine = clean_cluster(2, 1.5);
  for (int k = 0; k < 3; ++k) engine.step(machine);
  EXPECT_TRUE(engine.step_costs().empty());
  EXPECT_TRUE(engine.cumulative().empty());
  EXPECT_DOUBLE_EQ(engine.total_time(), 4.5);
}

}  // namespace
}  // namespace protuner
