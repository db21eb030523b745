// Tests for the PRO strategy (Algorithm 2): convergence on clean and noisy
// landscapes, step accounting, expansion-check behaviour, probe-based
// convergence certification, and the multi-sample modification.
#include <gtest/gtest.h>

#include <memory>

#include "cluster/simulated_cluster.h"
#include "core/landscape.h"
#include "core/pro.h"
#include "core/session.h"
#include "gs2/database.h"
#include "gs2/surface.h"
#include "varmodel/pareto_noise.h"

namespace protuner::core {
namespace {

ParameterSpace int_box(long lo = 0, long hi = 20) {
  return ParameterSpace(
      {Parameter::integer("a", lo, hi), Parameter::integer("b", lo, hi)});
}

cluster::SimulatedCluster clean_cluster(LandscapePtr land, std::size_t ranks,
                                        std::uint64_t seed = 1) {
  return cluster::SimulatedCluster(
      std::move(land), std::make_shared<varmodel::NoNoise>(),
      {.ranks = ranks, .seed = seed});
}

TEST(Pro, FindsQuadraticMinimumNoiseFree) {
  const auto space = int_box();
  auto land = std::make_shared<QuadraticLandscape>(Point{4.0, 17.0}, 1.0, 0.1);
  auto machine = clean_cluster(land, 8);
  ProStrategy pro(space, {});
  const SessionResult res = run_session(pro, machine, {.steps = 200});
  EXPECT_EQ(res.best, (Point{4.0, 17.0}));
  EXPECT_NEAR(res.best_clean, 1.0, 1e-9);
  EXPECT_TRUE(res.convergence_step.has_value());  // probe certified the minimum
}

TEST(Pro, ConvergedStrategyProposesBestForever) {
  const auto space = int_box();
  auto land = std::make_shared<QuadraticLandscape>(Point{10.0, 10.0}, 1.0, 0.5);
  auto machine = clean_cluster(land, 8);
  ProStrategy pro(space, {});
  (void)run_session(pro, machine, {.steps = 300});
  ASSERT_TRUE(pro.converged());
  for (int i = 0; i < 5; ++i) {
    const StepProposal p = pro.propose();
    ASSERT_EQ(p.configs.size(), 8u);  // every rank runs the best config
    for (const auto& c : p.configs) EXPECT_EQ(c, (Point{10.0, 10.0}));
    pro.observe(std::vector<double>(8, 1.0));
  }
}

TEST(Pro, TotalTimeDecreasesVersusFixedCenterStart) {
  // On-line tuning must beat "never tune" when the centre is suboptimal.
  const auto space = int_box();
  auto land = std::make_shared<QuadraticLandscape>(Point{2.0, 2.0}, 1.0, 0.2);
  auto m1 = clean_cluster(land, 8);
  auto m2 = clean_cluster(land, 8);
  ProStrategy pro(space, {});
  const SessionResult tuned = run_session(pro, m1, {.steps = 150});

  class CenterStrategy final : public TuningStrategy {
   public:
    explicit CenterStrategy(Point c) : c_(std::move(c)) {}
    void start(std::size_t) override {}
    void propose_into(std::vector<Point>& out) override { out.assign(1, c_); }
    void observe(std::span<const double>) override {}
    const Point& best_point() const override { return c_; }
    double best_estimate() const override { return 0.0; }
    bool converged() const override { return true; }
    std::string name() const override { return "center"; }
    Point c_;
  } fixed(space.center());
  const SessionResult untuned = run_session(fixed, m2, {.steps = 150});
  EXPECT_LT(tuned.total_time, untuned.total_time);
}

TEST(Pro, HandlesMultimodalLandscape) {
  const auto space = int_box(0, 30);
  auto land = std::make_shared<MultimodalLandscape>(Point{22.0, 7.0}, 1.0,
                                                    0.4, 0.21);
  auto machine = clean_cluster(land, 10);
  ProStrategy pro(space, {});
  const SessionResult res = run_session(pro, machine, {.steps = 400});
  // Must land in *some* local minimum no worse than the centre start.
  EXPECT_LT(res.best_clean, land->clean_time(space.center()));
}

TEST(Pro, MinimalSimplexAlsoConverges) {
  const auto space = int_box();
  auto land = std::make_shared<QuadraticLandscape>(Point{6.0, 6.0}, 1.0, 0.3);
  auto machine = clean_cluster(land, 8);
  ProOptions opts;
  opts.use_2n_simplex = false;
  ProStrategy pro(space, opts);
  const SessionResult res = run_session(pro, machine, {.steps = 300});
  EXPECT_LE(res.best_clean, land->clean_time(space.center()));
}

TEST(Pro, WorksWithFewerRanksThanSimplex) {
  // 2N = 4 candidate batch on 2 ranks: waves of 2; still converges.
  const auto space = int_box();
  auto land = std::make_shared<QuadraticLandscape>(Point{4.0, 4.0}, 1.0, 0.3);
  auto machine = clean_cluster(land, 2);
  ProStrategy pro(space, {});
  const SessionResult res = run_session(pro, machine, {.steps = 300});
  EXPECT_EQ(res.best, (Point{4.0, 4.0}));
}

TEST(Pro, SingleRankDegeneratesGracefully) {
  const auto space = int_box();
  auto land = std::make_shared<QuadraticLandscape>(Point{4.0, 4.0}, 1.0, 0.3);
  auto machine = clean_cluster(land, 1);
  ProStrategy pro(space, {});
  const SessionResult res = run_session(pro, machine, {.steps = 400});
  EXPECT_LE(res.best_clean, land->clean_time(space.center()));
}

TEST(Pro, MoveCountersAreConsistent) {
  const auto space = int_box();
  auto land = std::make_shared<QuadraticLandscape>(Point{3.0, 15.0}, 1.0, 0.2);
  auto machine = clean_cluster(land, 8);
  ProStrategy pro(space, {});
  (void)run_session(pro, machine, {.steps = 250});
  EXPECT_GT(pro.iterations(), 0u);
  EXPECT_EQ(pro.iterations(), pro.expansions_accepted() +
                                  pro.reflections_accepted() +
                                  pro.shrinks_accepted());
}

TEST(Pro, ExpansionCheckDisabledStillConverges) {
  const auto space = int_box();
  auto land = std::make_shared<QuadraticLandscape>(Point{17.0, 3.0}, 1.0, 0.2);
  auto machine = clean_cluster(land, 8);
  ProOptions opts;
  opts.expansion_check = false;
  ProStrategy pro(space, opts);
  const SessionResult res = run_session(pro, machine, {.steps = 300});
  EXPECT_EQ(res.best, (Point{17.0, 3.0}));
}

TEST(Pro, MultiSampleMinResistsHeavyNoise) {
  // Under heavy-tailed noise, K=3 with min estimator should find a truly
  // better configuration (clean value) at least as often as K=1, measured
  // across repetitions.  This is the behavioural core of Section 5.
  const auto space = int_box();
  auto land = std::make_shared<QuadraticLandscape>(Point{4.0, 4.0}, 2.0, 0.5);
  auto noise = std::make_shared<varmodel::ParetoNoise>(0.3, 1.7);

  double clean_k1 = 0.0, clean_k3 = 0.0;
  constexpr int kReps = 25;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto seed = static_cast<std::uint64_t>(100 + rep);
    cluster::SimulatedCluster m1(land, noise, {.ranks = 8, .seed = seed});
    cluster::SimulatedCluster m3(land, noise, {.ranks = 8, .seed = seed});
    ProOptions o1;
    o1.samples = 1;
    ProOptions o3;
    o3.samples = 3;
    ProStrategy p1(space, o1);
    ProStrategy p3(space, o3);
    clean_k1 += run_session(p1, m1, {.steps = 150}).best_clean;
    clean_k3 += run_session(p3, m3, {.steps = 150}).best_clean;
  }
  EXPECT_LE(clean_k3, clean_k1 * 1.05);
}

TEST(Pro, TunesGs2DatabaseToGoodConfiguration) {
  const auto space = gs2::gs2_space();
  const gs2::Gs2Surface surface;
  auto db = std::make_shared<gs2::Database>(
      gs2::Database::measure(space, surface, {}));
  auto machine = clean_cluster(db, 6);
  ProStrategy pro(space, {});
  const SessionResult res = run_session(pro, machine, {.steps = 200});
  EXPECT_TRUE(space.admissible(res.best));
  EXPECT_LT(res.best_clean, db->clean_time(space.center()));
}

TEST(Pro, NameReflectsOptions) {
  ProOptions opts;
  opts.samples = 4;
  opts.use_2n_simplex = false;
  ProStrategy pro(int_box(), opts);
  const std::string n = pro.name();
  EXPECT_NE(n.find("K=4"), std::string::npos);
  EXPECT_NE(n.find("N+1"), std::string::npos);
}

}  // namespace
}  // namespace protuner::core
