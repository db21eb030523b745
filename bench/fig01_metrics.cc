// Figure 1: per-iteration time T_k vs cumulative Total_Time for three
// tuning algorithms.  The paper's point: the algorithm that looks best by
// final iteration time (panel a) is not the one with the best Total_Time
// (panel b) — transient behaviour decides on-line tuning, which is also why
// §2 rules out randomized optimizers (they converge eventually but pay a
// terrible transient).
//
// Variants:
//   Algorithm 1: PRO, 2N simplex, r = 0.2      (strong transient)
//   Algorithm 2: SRO, 2N simplex, r = 0.2      (sequential: slow transient)
//   Algorithm 3: parallel simulated annealing (random start, global
//                exploration: best final configuration, poor transient)
// Series are averaged over REPRO_REPS repetitions with shared noise seeds.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/simulated_cluster.h"
#include "core/session.h"
#include "core/strategy_spec.h"
#include "gs2/database.h"
#include "gs2/surface.h"
#include "util/ascii_plot.h"
#include "util/csv.h"
#include "varmodel/pareto_noise.h"

namespace {

using namespace protuner;

constexpr std::size_t kSteps = 300;

core::TuningStrategyPtr make_variant(int variant,
                                     const core::ParameterSpace& space,
                                     std::uint64_t seed) {
  switch (variant) {
    case 1:
      // refresh=0: paper-literal Algorithm 2 throughout.
      return core::make_strategy("pro:refresh=0", space, seed);
    case 2:
      return core::make_strategy("sro", space, seed);
    default:
      // Randomized global search: converges to the best configuration of
      // the three eventually (the landscape is trap-dense and PRO is
      // local), but pays a brutal random-start transient — the §2 argument
      // against randomized optimizers for on-line tuning.
      return core::make_strategy("anneal:decay=0.985,migrate=25", space,
                                 seed);
  }
}

}  // namespace

int main() {
  const long reps = bench::reps(20);
  bench::header(
      "Fig. 1 — Single Iteration Time and Total Time for 3 algorithms",
      "ranking by final iteration time and by Total_Time(K) disagree; "
      "transient behaviour decides on-line tuning");
  std::cout << "repetitions averaged: " << reps << "\n";

  const auto space = gs2::gs2_space();
  const gs2::Gs2Surface surface;
  auto db = std::make_shared<gs2::Database>(
      gs2::Database::measure(space, surface, {}));
  auto noise = std::make_shared<varmodel::ParetoNoise>(0.15, 1.7);

  // avg_cost[v][k], avg_cum[v][k]
  std::vector<std::vector<double>> avg_cost(3,
                                            std::vector<double>(kSteps, 0.0));
  std::vector<std::vector<double>> avg_cum(3,
                                           std::vector<double>(kSteps, 0.0));
  std::vector<double> avg_total(3, 0.0);

  // One repetition = three sessions (one per variant); repetitions run
  // on the repetition workers, and the rep-ordered merge below reproduces
  // the serial accumulation bit for bit.
  const auto rep_results =
      bench::per_rep(reps, [&](long rep) -> std::vector<core::SessionResult> {
        const std::uint64_t rep_seed =
            bench::seed() + 7919ULL * static_cast<std::uint64_t>(rep);
        std::vector<core::SessionResult> per_variant;
        per_variant.reserve(3);
        for (int v = 1; v <= 3; ++v) {
          cluster::SimulatedCluster machine(db, noise,
                                            {.ranks = 6, .seed = rep_seed});
          auto strategy = make_variant(v, space, rep_seed ^ 0x5bdULL);
          per_variant.push_back(core::run_session(
              *strategy, machine, {.steps = kSteps, .record_series = true}));
        }
        return per_variant;
      });
  for (const auto& per_variant : rep_results) {
    for (std::size_t vi = 0; vi < 3; ++vi) {
      const core::SessionResult& r = per_variant[vi];
      for (std::size_t k = 0; k < kSteps; ++k) {
        avg_cost[vi][k] += r.step_costs[k] / static_cast<double>(reps);
        avg_cum[vi][k] += r.cumulative[k] / static_cast<double>(reps);
      }
      avg_total[vi] += r.total_time / static_cast<double>(reps);
    }
  }

  util::CsvWriter csv(std::cout);
  csv.header({"step", "Tk_alg1", "Tk_alg2", "Tk_alg3", "total_alg1",
              "total_alg2", "total_alg3"});
  for (std::size_t k = 0; k < kSteps; k += 5) {
    csv.row(k + 1, avg_cost[0][k], avg_cost[1][k], avg_cost[2][k],
            avg_cum[0][k], avg_cum[1][k], avg_cum[2][k]);
  }

  std::vector<double> xs(kSteps);
  for (std::size_t k = 0; k < kSteps; ++k) xs[k] = static_cast<double>(k + 1);
  std::vector<util::Series> panel_a, panel_b;
  for (std::size_t v = 0; v < 3; ++v) {
    panel_a.push_back({"alg" + std::to_string(v + 1), xs, avg_cost[v]});
    panel_b.push_back({"alg" + std::to_string(v + 1), xs, avg_cum[v]});
  }
  util::PlotOptions po;
  po.title = "(a) avg iteration time T_k";
  std::cout << util::line_plot(panel_a, po);
  po.title = "(b) avg Total_Time (cumulative)";
  std::cout << util::line_plot(panel_b, po);

  const auto tail_mean = [&](std::size_t v) {
    double s = 0.0;
    for (std::size_t k = kSteps - 30; k < kSteps; ++k) s += avg_cost[v][k];
    return s / 30.0;
  };
  const double f1 = tail_mean(0), f2 = tail_mean(1), f3 = tail_mean(2);
  std::cout << "final iteration time: alg1=" << f1 << " alg2=" << f2
            << " alg3=" << f3 << "\n";
  std::cout << "Total_Time(" << kSteps << "):      alg1=" << avg_total[0]
            << " alg2=" << avg_total[1] << " alg3=" << avg_total[2] << "\n";

  // The paper's tuning horizon is Total_Time(100): at that horizon the
  // cheap-transient variant leads, even though algorithm 3 converges to the
  // better configuration — the exact Fig. 1 discrepancy.
  const std::size_t h = 100;
  std::cout << "Total_Time(100):      alg1=" << avg_cum[0][h - 1]
            << " alg2=" << avg_cum[1][h - 1] << " alg3=" << avg_cum[2][h - 1]
            << "\n";
  bench::check(avg_cum[0][h - 1] < avg_cum[1][h - 1] &&
                   avg_cum[0][h - 1] < avg_cum[2][h - 1],
               "single-sample PRO wins on the on-line metric Total_Time(100)");
  bench::check(f3 < f1 && f3 < f2,
               "the randomized variant converges to the best final "
               "iteration time (panel-a winner)");
  bench::check(f3 < f1 ? avg_cum[0][h - 1] < avg_cum[2][h - 1] : false,
               "rankings by the two metrics disagree (the Fig. 1 "
               "discrepancy)");
  bench::check(avg_cum[2][kSteps / 3] > avg_cum[0][kSteps / 3],
               "the randomized variant's transient is more expensive "
               "(slower early progress)");
  return 0;
}
