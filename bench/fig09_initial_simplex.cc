// Figure 9: average Normalized Total Time vs initial-simplex relative size
// r, for the minimal (N+1) and axial (2N) simplex shapes (§6.1).
// Paper findings to reproduce: the 2N simplex clearly outperforms N+1, and
// neither very small nor very large r performs well (sweet spot near 0.2).
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "cluster/simulated_cluster.h"
#include "core/pro.h"
#include "core/session.h"
#include "gs2/database.h"
#include "gs2/surface.h"
#include "util/ascii_plot.h"
#include "util/csv.h"
#include "varmodel/pareto_noise.h"

using namespace protuner;

int main() {
  const long reps = bench::reps(60);
  bench::header("Fig. 9 — avg NTT vs initial simplex size r, N+1 vs 2N",
                "2N simplex beats N+1; interior optimum in r (around 0.2)");
  std::cout << "repetitions per configuration: " << reps
            << " (set REPRO_REPS to change)\n";

  const auto space = gs2::gs2_space();
  const gs2::Gs2Surface surface;
  auto db = std::make_shared<gs2::Database>(
      gs2::Database::measure(space, surface, {}));
  auto noise = std::make_shared<varmodel::ParetoNoise>(0.10, 1.7);

  const std::vector<double> r_values{0.05, 0.1, 0.15, 0.2, 0.3,
                                     0.4,  0.5, 0.7,  0.9};

  // Cell c is (r_values[c / 2], N+1 simplex when c is even, 2N when odd).
  std::vector<core::ProOptions> cell_opts;
  for (const double r : r_values) {
    for (const bool use_2n : {false, true}) {
      core::ProOptions opts;
      opts.initial_size = r;
      opts.use_2n_simplex = use_2n;
      cell_opts.push_back(opts);
    }
  }
  const std::uint64_t seed = bench::seed();
  const auto outs = bench::per_cell_rep(
      static_cast<long>(cell_opts.size()), reps, [&](long c, long rep) {
        cluster::SimulatedCluster machine(
            db, noise,
            {.ranks = 6, .seed = seed + static_cast<std::uint64_t>(rep)});
        core::ProStrategy pro(space, cell_opts[static_cast<std::size_t>(c)]);
        return core::run_session(pro, machine,
                                 {.steps = 100, .record_series = false})
            .ntt;
      });

  util::CsvWriter csv(std::cout);
  csv.header({"r", "shape", "avg_ntt"});

  std::vector<double> ntt_min_simplex, ntt_2n_simplex;
  for (std::size_t c = 0; c < outs.size(); ++c) {
    double acc = 0.0;
    for (const double v : outs[c]) acc += v;
    const double avg = acc / static_cast<double>(reps);
    const bool use_2n = cell_opts[c].use_2n_simplex;
    csv.row(cell_opts[c].initial_size, use_2n ? "2N" : "N+1", avg);
    (use_2n ? ntt_2n_simplex : ntt_min_simplex).push_back(avg);
  }

  std::vector<util::Series> series{
      {"N+1", r_values, ntt_min_simplex},
      {"2N", r_values, ntt_2n_simplex},
  };
  util::PlotOptions po;
  po.title = "avg NTT vs r";
  std::cout << util::line_plot(series, po);

  // Shape checks.
  double mean_min = 0.0, mean_2n = 0.0;
  for (std::size_t i = 0; i < r_values.size(); ++i) {
    mean_min += ntt_min_simplex[i];
    mean_2n += ntt_2n_simplex[i];
  }
  bench::check(mean_2n < mean_min,
               "2N-vertex simplex outperforms the minimal N+1 simplex");

  const auto argmin = [](const std::vector<double>& v) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < v.size(); ++i) {
      if (v[i] < v[best]) best = i;
    }
    return best;
  };
  const std::size_t best_idx = argmin(ntt_2n_simplex);
  std::cout << "best r for 2N simplex: " << r_values[best_idx] << "\n";
  bench::check(best_idx != 0 && best_idx + 1 != r_values.size(),
               "neither extreme r is optimal (interior sweet spot)");
  bench::check(r_values[best_idx] >= 0.1 && r_values[best_idx] <= 0.5,
               "sweet spot in the moderate range the paper recommends "
               "(r ~ 0.2)");
  return 0;
}
