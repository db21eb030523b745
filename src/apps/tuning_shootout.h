// Cross-product strategy shootout: every registered tuning strategy against
// every landscape and noise model, built *entirely from spec strings*
// (DESIGN.md §13) — the end-to-end exercise of the declarative layer.
//
//   strategies × landscapes × noises × min-of-K settings × seeds
//
// Each cell runs one synchronous tuning session (core::run_session) on a
// spec-built evaluator and reports the paper's metrics: Total_Time, NTT,
// the true clean time of the final best point, and the convergence step.
// The driver emits CSV (machine-readable), per-(landscape, noise) ASCII
// convergence plots, and optionally a BENCH_shootout.json summary.
//
// Min-of-K is applied by rewriting each strategy spec with `k=<K>`;
// strategies that do not take a `k` key (annealing, genetic, ...) reject the
// rewritten spec at parse time and the combination is recorded as skipped —
// the unknown-key diagnostics doing real routing work.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/session.h"

namespace protuner::apps {

struct ShootoutOptions {
  std::vector<std::string> strategies;  ///< strategy specs (core registry)
  std::vector<std::string> landscapes;  ///< landscape specs (gs2 registry)
  std::vector<std::string> noises;      ///< noise specs (varmodel registry)
  /// Min-of-K settings; 0 = leave the strategy spec untouched, K > 0
  /// rewrites it with `k=K` (combinations whose strategy rejects `k` are
  /// skipped and reported).
  std::vector<int> min_of_k = {0};
  std::size_t seeds = 3;      ///< repetitions per cell
  std::size_t steps = 120;    ///< application time steps per session
  std::size_t ranks = 8;      ///< parallel width
  std::uint64_t base_seed = 20050712;
  bool plots = true;          ///< ASCII convergence plots per (land, noise)
  /// Evaluator spec; `ranks=`/`seed=` are appended per cell.
  std::string evaluator = "simulated";
};

/// One completed cell of the cross product.
struct ShootoutRow {
  std::string strategy_spec;  ///< spec after the min-of-K rewrite
  std::string strategy_name;  ///< TuningStrategy::name() of the instance
  std::string landscape;
  std::string noise;
  int k = 0;
  std::uint64_t seed = 0;
  core::SessionResult result;
};

struct ShootoutReport {
  std::vector<ShootoutRow> rows;
  /// "spec: reason" for combinations rejected at spec-parse time.
  std::vector<std::string> skipped;
};

/// Runs the full cross product, streaming CSV (and plots, when enabled) to
/// `out`.  Throws spec::SpecError if a base spec (no k rewrite) is invalid.
ShootoutReport run_shootout(const ShootoutOptions& options, std::ostream& out);

/// Writes the report as a benchmark-style JSON document (one entry per
/// row, aggregate context up front).
void write_shootout_json(const ShootoutReport& report,
                         const ShootoutOptions& options, std::ostream& out);

}  // namespace protuner::apps
