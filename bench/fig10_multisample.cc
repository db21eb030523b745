// Figure 10: average Normalized Total Time vs number of samples K (1..5)
// for idle throughput rho in {0, 0.05, ..., 0.4} — the paper's headline
// experiment for the min-of-K modification (§6.2).
//
// Setup mirrors the paper: PRO exactly as Algorithm 2 (vertex estimates
// measured once — no incumbent refresh), performance variability i.i.d.
// Pareto with alpha = 1.7 and beta from Eq. 17, samples for one point taken
// in *subsequent time steps* (no parallel-sampling advantage — worst case),
// NTT = (1 - rho) Total_Time (Eq. 23).  The paper averaged 2000 simulations
// per configuration; default here is 200 (REPRO_REPS raises it).
//
// Two panels are produced:
//   * Total_Time(100) — the paper's horizon.  On our surrogate landscape
//     the sampling overhead dominates at this horizon and K* = 1; the
//     quality column shows the §5 mechanism is nevertheless active (the
//     final configuration improves with K at high rho).
//   * Total_Time(800) — an extended horizon where the transient amortizes;
//     here the paper's interior optimum emerges at high rho (K* > 1).
// EXPERIMENTS.md discusses the discrepancy at the short horizon.
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "cluster/simulated_cluster.h"
#include "core/session.h"
#include "core/strategy_spec.h"
#include "gs2/database.h"
#include "gs2/surface.h"
#include "spec/spec.h"
#include "util/ascii_plot.h"
#include "util/csv.h"
#include "util/env.h"
#include "varmodel/noise_model.h"
#include "varmodel/pareto_noise.h"

using namespace protuner;

namespace {

constexpr int kMaxSamples = 5;
constexpr double kAlpha = 1.7;

const std::vector<double> kRhos{0.0,  0.05, 0.10, 0.15, 0.20,
                                0.25, 0.30, 0.35, 0.40};

struct Grid {
  // [rho_index][k-1]
  std::vector<std::vector<double>> ntt;
  std::vector<std::vector<double>> clean;
};

Grid run_grid(const core::ParameterSpace& space, core::LandscapePtr db,
              std::size_t steps, long reps) {
  // Per-cell inputs built once: one noise model per rho, one parsed spec
  // per K.  refresh=0: paper-literal Algorithm 2; est=min, replicas=0
  // (sequential samples, the worst case) are the defaults.
  std::vector<std::shared_ptr<const varmodel::NoiseModel>> noise;
  for (const double rho : kRhos) {
    if (rho == 0.0) {
      noise.push_back(std::make_shared<varmodel::NoNoise>());
    } else {
      noise.push_back(std::make_shared<varmodel::ParetoNoise>(rho, kAlpha));
    }
  }
  std::vector<spec::Spec> specs;
  for (int k = 1; k <= kMaxSamples; ++k) {
    specs.push_back(spec::parse("pro:refresh=0,k=" + std::to_string(k)));
  }
  const std::uint64_t seed = bench::seed();

  struct RepOut {
    double ntt, clean;
  };
  // Cell c is (rho kRhos[c / kMaxSamples], K = c % kMaxSamples + 1).
  const auto cells = static_cast<long>(kRhos.size()) * kMaxSamples;
  const auto outs = bench::per_cell_rep(cells, reps, [&](long c, long rep) {
    cluster::SimulatedCluster machine(
        db, noise[static_cast<std::size_t>(c / kMaxSamples)],
        {.ranks = 6,
         .seed = seed + 1000003ULL * static_cast<std::uint64_t>(rep + 1)});
    auto pro = core::make_strategy(
        specs[static_cast<std::size_t>(c % kMaxSamples)], space, seed);
    const core::SessionResult r = core::run_session(
        *pro, machine, {.steps = steps, .record_series = false});
    return RepOut{r.ntt, r.best_clean};
  });

  Grid g;
  g.ntt.assign(kRhos.size(), std::vector<double>(kMaxSamples, 0.0));
  g.clean.assign(kRhos.size(), std::vector<double>(kMaxSamples, 0.0));
  for (std::size_t c = 0; c < outs.size(); ++c) {
    double acc = 0.0, acc_clean = 0.0;
    for (const auto& o : outs[c]) {
      acc += o.ntt;
      acc_clean += o.clean;
    }
    g.ntt[c / kMaxSamples][c % kMaxSamples] = acc / static_cast<double>(reps);
    g.clean[c / kMaxSamples][c % kMaxSamples] =
        acc_clean / static_cast<double>(reps);
  }
  return g;
}

std::size_t argmin_k(const std::vector<double>& v) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] < v[best]) best = i;
  }
  return best + 1;  // K is 1-based
}

void print_panel(const char* title, const Grid& g) {
  std::cout << "\n--- " << title << " ---\n";
  util::CsvWriter csv(std::cout);
  csv.header({"rho", "samples", "avg_ntt", "avg_best_clean"});
  for (std::size_t ri = 0; ri < kRhos.size(); ++ri) {
    for (int k = 1; k <= kMaxSamples; ++k) {
      csv.row(kRhos[ri], k, g.ntt[ri][static_cast<std::size_t>(k - 1)],
              g.clean[ri][static_cast<std::size_t>(k - 1)]);
    }
  }
  const std::vector<double> ks{1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<util::Series> series;
  for (std::size_t ri = 0; ri < kRhos.size(); ri += 2) {
    series.push_back(
        {"rho=" + std::to_string(kRhos[ri]).substr(0, 4), ks, g.ntt[ri]});
  }
  util::PlotOptions po;
  po.title = "avg NTT vs #samples";
  std::cout << util::line_plot(series, po);
  std::cout << "optimal K per rho:";
  for (std::size_t ri = 0; ri < kRhos.size(); ++ri) {
    std::cout << "  " << kRhos[ri] << "->" << argmin_k(g.ntt[ri]);
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  const long reps = bench::reps(200);
  const auto paper_steps =
      static_cast<std::size_t>(util::env_long("REPRO_STEPS", 100));
  bench::header("Fig. 10 — avg NTT vs #samples K for rho = 0 .. 0.4",
                "K is pure overhead at rho = 0; under heavy variability an "
                "interior optimum K* > 1 appears");
  std::cout << "repetitions per configuration: " << reps
            << " (paper used 2000; set REPRO_REPS; REPRO_THREADS "
               "parallelizes the repetitions without changing any output "
               "byte)\n";

  const auto space = gs2::gs2_space();
  const gs2::Gs2Surface surface;
  auto db = std::make_shared<gs2::Database>(
      gs2::Database::measure(space, surface, {}));

  const Grid short_h = run_grid(space, db, paper_steps, reps);
  // Long horizon: same order of simulated work, fewer reps.
  const Grid long_h = run_grid(space, db, 8 * paper_steps,
                               std::max<long>(20, reps / 2));

  print_panel("panel 1: Total_Time(100), the paper's horizon", short_h);
  print_panel("panel 2: Total_Time(800), extended horizon", long_h);

  // ---- shape checks --------------------------------------------------
  bool rho0_monotone = true;
  for (int k = 1; k < kMaxSamples; ++k) {
    if (short_h.ntt[0][static_cast<std::size_t>(k)] <
        short_h.ntt[0][static_cast<std::size_t>(k - 1)]) {
      rho0_monotone = false;
    }
  }
  bench::check(rho0_monotone,
               "rho = 0: NTT increases with K (sampling is pure overhead)");

  const double slope1 = short_h.ntt[0][1] - short_h.ntt[0][0];
  const double slope4 = short_h.ntt[0][4] - short_h.ntt[0][3];
  bench::check(slope1 > 0.0 && slope4 > 0.0 && slope4 < 3.0 * slope1 + 1.0,
               "rho = 0: growth with K is linear");

  bench::check(short_h.ntt[8][0] > short_h.ntt[1][0],
               "system performance degrades as variability grows");

  // Quality mechanism (§5): at high rho the *final configuration* found
  // with multi-sampling is at least as good as with single sampling.
  bench::check(short_h.clean[8][1] < short_h.clean[8][0] * 1.02,
               "rho = 0.4: min-of-K reaches a final configuration at least "
               "as good as single sampling (estimator mechanism active)");

  // The paper's interior optimum: on our surrogate it emerges once the
  // transient can amortize (extended horizon, high rho).
  bench::check(argmin_k(long_h.ntt[8]) > 1,
               "rho = 0.4, extended horizon: interior optimum K* > 1 "
               "(multiple samples beat single sampling)");
  bench::check(argmin_k(long_h.ntt[8]) >= argmin_k(long_h.ntt[1]),
               "optimal K* does not decrease as rho grows (extended "
               "horizon)");

  const double best0 = short_h.ntt[0][argmin_k(short_h.ntt[0]) - 1];
  const double best005 = short_h.ntt[1][argmin_k(short_h.ntt[1]) - 1];
  std::cout << "rho=0 best NTT=" << best0
            << "  rho=0.05 best NTT=" << best005
            << (best005 < best0
                    ? "  (reproduces the paper's 'helpful noise' anomaly)"
                    : "  (anomaly not visible at this rep count)")
            << "\n";
  return 0;
}
