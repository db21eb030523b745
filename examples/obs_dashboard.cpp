// Live telemetry dashboard over the obs:: metrics registry.
//
// Hosts two concurrent tuning sessions (PRO and Nelder-Mead over the GS2
// surface, both under Pareto noise) in one harmony::SessionManager, drives
// them step by step, and every few rounds redraws an ASCII dashboard from
// one Registry::snapshot(): per-session round-cost percentiles (p50/p90/p99/
// p99.9/max — no mean, by design), database-tier hit counters, and a
// log-bucketed histogram of the round costs rendered with
// util::ascii_plot.  Everything shown is read from the same registry a
// Prometheus scrape would see.
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/strategy_spec.h"
#include "gs2/database.h"
#include "gs2/surface.h"
#include "harmony/session_manager.h"
#include "obs/metrics.h"
#include "util/ascii_plot.h"
#include "util/rng.h"
#include "varmodel/pareto_noise.h"

using namespace protuner;

namespace {

/// Drives every rank of one session through a single fetch/report round.
/// Clean times come from the sparse evaluation database (so the dashboard's
/// tier counters show real exact/memo/kd-tree traffic).
void drive_round(harmony::Server& server, const gs2::Database& db,
                 const varmodel::ParetoNoise& noise, util::Rng& rng) {
  const std::size_t ranks = server.clients();
  for (std::size_t r = 0; r < ranks; ++r) {
    const core::Point cfg = server.fetch(r);
    server.report(r, noise.observe(db.clean_time(cfg), rng));
  }
}

void print_session(const obs::RegistrySnapshot& snap,
                   const std::string& name) {
  const obs::InstrumentSnapshot* cost = snap.find("protuner_round_cost", name);
  const obs::InstrumentSnapshot* rounds =
      snap.find("protuner_rounds_total", name);
  if (cost == nullptr || rounds == nullptr) return;
  std::printf("  %-10s rounds=%5.0f  T_k p50=%7.3f p90=%7.3f p99=%7.3f "
              "p99.9=%7.3f max=%7.3f\n",
              name.c_str(), rounds->value, cost->hist.p50(), cost->hist.p90(),
              cost->hist.p99(), cost->hist.p999(), cost->hist.max);
}

/// ASCII histogram of one session's round costs: only the occupied bucket
/// range is drawn, each bin labelled by its power-of-two lower edge.
void print_cost_histogram(const obs::RegistrySnapshot& snap,
                          const std::string& name) {
  const obs::InstrumentSnapshot* cost = snap.find("protuner_round_cost", name);
  if (cost == nullptr || cost->hist.count == 0) return;
  const auto& counts = cost->hist.counts;
  std::size_t lo = counts.size();
  std::size_t hi = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0) {
      lo = std::min(lo, i);
      hi = std::max(hi, i);
    }
  }
  if (lo > hi) return;
  std::vector<double> edges;
  std::vector<double> bars;
  for (std::size_t i = lo; i <= hi; ++i) {
    edges.push_back(obs::Histogram::bucket_lower(i));
    bars.push_back(static_cast<double>(counts[i]));
  }
  edges.push_back(obs::Histogram::bucket_upper(hi) > cost->hist.max
                      ? cost->hist.max
                      : obs::Histogram::bucket_upper(hi));
  util::PlotOptions popts;
  popts.title = "round cost T_k [" + name + "]";
  popts.height = static_cast<int>(bars.size());
  std::cout << util::histogram_plot(edges, bars, popts);
}

}  // namespace

int main(int argc, char** argv) {
  const int kSteps = argc > 1 ? std::atoi(argv[1]) : 120;
  constexpr std::size_t kRanks = 6;
  constexpr int kRedrawEvery = 30;

  const auto space = gs2::gs2_space();
  const gs2::Gs2Surface surface;
  const gs2::Database db =
      gs2::Database::measure(space, surface, gs2::DatabaseOptions{});
  const varmodel::ParetoNoise noise(0.15, 1.7);

  harmony::SessionManager manager;
  const auto pro =
      manager.create("pro", core::make_strategy("pro:k=2", space), kRanks);
  const auto nm =
      manager.create("nm", core::make_strategy("nm", space), kRanks);

  util::Rng rng_pro(42);
  util::Rng rng_nm(43);

  for (int step = 1; step <= kSteps; ++step) {
    drive_round(*pro, db, noise, rng_pro);
    drive_round(*nm, db, noise, rng_nm);
    if (step % kRedrawEvery == 0 || step == kSteps) {
      std::printf("\n== obs dashboard · step %d/%d ==\n", step, kSteps);
      const obs::RegistrySnapshot all = obs::Registry::global().snapshot();
      print_session(all, "pro");
      print_session(all, "nm");
      std::printf("  db lookups:");
      for (const char* tier : {"exact", "memo", "kdtree"}) {
        for (const auto& inst : all.instruments) {
          if (inst.name != "protuner_db_lookups_total") continue;
          for (const auto& [k, v] : inst.labels) {
            if (k == "tier" && v == tier) {
              std::printf("  %s=%.0f", tier, inst.value);
            }
          }
        }
      }
      std::printf("\n");
    }
  }

  std::cout << "\n";
  const obs::RegistrySnapshot final_snap = obs::Registry::global().snapshot();
  print_cost_histogram(final_snap, "pro");
  print_cost_histogram(final_snap, "nm");

  manager.remove("pro");
  manager.remove("nm");
  return 0;
}
