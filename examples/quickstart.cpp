// Quickstart: tune two integer parameters of a synthetic application with
// PRO on a simulated 8-rank machine, in ~30 lines of user code.
//
//   1. declare the tunable parameters,
//   2. wrap the application's per-iteration cost as a Landscape,
//   3. pick a noise model for the machine,
//   4. run a tuning session and read off the best configuration.
#include <cmath>
#include <iostream>

#include "cluster/simulated_cluster.h"
#include "core/landscape.h"
#include "core/session.h"
#include "core/strategy_spec.h"
#include "varmodel/noise_spec.h"

using namespace protuner;

int main() {
  // 1. Two tunable parameters: a block size (powers of two) and a thread
  //    count (integer range).
  const core::ParameterSpace space({
      core::Parameter::discrete("block", {8, 16, 32, 64, 128, 256}),
      core::Parameter::integer("threads", 1, 16),
  });

  // 2. The application: per-iteration seconds as a function of the
  //    configuration.  (Here synthetic; in production this is a measurement.)
  auto app = std::make_shared<core::FunctionLandscape>(
      "demo-app", [](const core::Point& x) {
        const double block = x[0];
        const double threads = x[1];
        const double compute = 40.0 / threads + 0.05 * threads;  // contention
        const double cache = 0.4 * std::abs(std::log2(block) - 5.0);
        return 1.0 + compute + cache;
      });

  // 3. The machine: 8 ranks with heavy-tailed variability (idle throughput
  //    20%, Pareto tail index 1.7 — the paper's model).
  auto noise = varmodel::make_noise("pareto:rho=0.2,alpha=1.7");
  cluster::SimulatedCluster machine(app, noise, {.ranks = 8, .seed = 42});

  // 4. PRO with min-of-3 sampling; tune over 120 application time steps.
  //    Strategies are built from declarative specs (DESIGN.md §13):
  //    swap in "nm:iters=200", "compass:k=3", "anneal", ... without
  //    recompiling.
  auto pro = core::make_strategy("pro:k=3", space);
  const core::SessionResult result =
      core::run_session(*pro, machine, {.steps = 120});

  std::cout << "best configuration: block=" << result.best[0]
            << " threads=" << result.best[1] << "\n"
            << "clean time at best: " << result.best_clean << " s/iter\n"
            << "Total_Time(120):    " << result.total_time << " s\n"
            << "NTT:                " << result.ntt << " s\n"
            << "converged at step:  " << result.convergence_step.value_or(0)
            << "\n";

  // Ground truth for comparison (block=32, threads where 40/t + .05t min).
  std::cout << "ground-truth optimum is block=32, threads~16 -> "
            << app->clean_time(core::Point{32.0, 16.0}) << " s/iter\n";
  return 0;
}
