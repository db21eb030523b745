// Parallel simulated annealing — a representative of the randomized global
// optimizers the paper argues are wrong for on-line tuning (§2): they may
// converge eventually but pay a terrible transient Total_Time.
//
// One independent Metropolis chain per rank; each application time step
// every chain proposes a neighbouring configuration and accepts it with the
// Metropolis rule at the current (geometrically cooled) temperature.
#pragma once

#include "core/parameter_space.h"
#include "core/strategy.h"

namespace protuner::core {

/// Each chain starts at temperature 1 (relative to the best value seen)
/// and cools by 0.98 per step; a continuous neighbour's step has stddev 10%
/// of the parameter range, times the decaying scale below.
struct AnnealingOptions {
  /// Per-step decay of the neighbour scale (also scales the probability of
  /// moving on discrete axes), so late proposals stay near the incumbent
  /// and the tail iteration cost converges.  1.0 disables.
  double step_decay = 0.995;
  /// Every this many steps, teleport all chains to the best configuration
  /// found so far (best-of-chains migration).  0 disables.
  std::size_t migrate_every = 0;
  std::uint64_t seed = 1;
};

class AnnealingStrategy final : public TuningStrategy {
 public:
  AnnealingStrategy(ParameterSpace space, AnnealingOptions opts);

  void start(std::size_t ranks) override;
  void propose_into(std::vector<Point>& out) override;
  void observe(std::span<const double> times) override;
  const Point& best_point() const override { return best_point_; }
  double best_estimate() const override { return best_value_; }
  bool converged() const override { return false; }  // anneals forever
  std::string name() const override { return "SimulatedAnnealing"; }

 private:
  /// Writes a neighbour of the admissible point x into `out` (not x),
  /// reusing its storage.  Discrete moves step between admissible values
  /// and continuous moves are clamped, so the result is admissible with no
  /// projection.
  void neighbor_into(const Point& x, util::Rng& rng, Point& out) const;

  ParameterSpace space_;
  AnnealingOptions opts_;

  std::vector<Point> current_;
  std::vector<double> current_value_;
  std::vector<Point> proposals_;
  std::vector<util::Rng> rngs_;
  bool first_observation_ = true;

  double temperature_ = 1.0;
  double step_scale_ = 1.0;
  std::size_t steps_seen_ = 0;
  Point best_point_;
  double best_value_ = 0.0;
};

}  // namespace protuner::core
