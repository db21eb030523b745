// The on-line tuning session driver (paper §2).
//
// Runs an application for exactly `steps` time steps under a tuning
// strategy and accounts the paper's metric:
//   T_k            = max over busy ranks of the observed iteration time
//   Total_Time(K)  = sum_k T_k                                   (Eq. 2)
//   NTT            = (1 - rho) * Total_Time                      (Eq. 23)
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/evaluator.h"
#include "core/strategy.h"

namespace protuner::core {

struct SessionResult {
  double total_time = 0.0;              ///< Total_Time(steps)
  double ntt = 0.0;                     ///< (1 - rho) * total_time
  std::vector<double> step_costs;       ///< T_k series (Fig. 1a material)
  std::vector<double> cumulative;       ///< running Total_Time (Fig. 1b)
  Point best;                           ///< strategy's final best config
  double best_estimate = 0.0;           ///< strategy's estimate at best
  double best_clean = -1.0;             ///< true f(best) when known
  std::size_t steps = 0;
  /// First step (1-based) at which the strategy certified convergence;
  /// empty when the session never converged.
  std::optional<std::size_t> convergence_step;

  bool converged() const { return convergence_step.has_value(); }
};

/// Hook into the tuning loop: invoked synchronously by run_session.
/// Implement to log each step (see CsvSessionLogger) or to watch for
/// convergence.  Round counts and T_k are already recorded by RoundEngine's
/// own instruments.
class SessionObserver {
 public:
  virtual ~SessionObserver() = default;

  /// After each time step: the assignment that ran, the observed per-rank
  /// times, and the step cost T_k.
  virtual void on_step(std::size_t step, std::span<const Point> configs,
                       std::span<const double> times, double cost) {
    (void)step;
    (void)configs;
    (void)times;
    (void)cost;
  }

  /// Once, at the first step where the strategy reports convergence.
  virtual void on_converged(std::size_t step, const Point& best) {
    (void)step;
    (void)best;
  }
};

struct SessionOptions {
  std::size_t steps = 100;      ///< K: application time steps to run
  bool record_series = true;    ///< keep per-step series (off to save memory)
  SessionObserver* observer = nullptr;  ///< optional caller callback
};

/// Drives `strategy` against `machine` for the configured number of steps.
/// A thin synchronous loop over core::RoundEngine (round_engine.h), which
/// owns the round lifecycle and all accounting.
SessionResult run_session(TuningStrategy& strategy, StepEvaluator& machine,
                          const SessionOptions& options);

}  // namespace protuner::core
