// Parallel compass (coordinate) search — another member of the Generating
// Set Search family (Kolda, Lewis, Torczon 2003) the paper situates PRO in.
// Each iteration polls the 2N axial neighbours of the incumbent at the
// current step size, all in one parallel round; success moves the
// incumbent, failure halves the step.  A useful second GSS reference point
// for the algorithm-comparison benches.
#pragma once

#include "core/parameter_space.h"
#include "core/strategy.h"

namespace protuner::core {

struct CompassOptions {
  /// Initial step as a fraction of each parameter range.
  double initial_step_fraction = 0.25;
  /// Step-size floor (relative) below which the search declares convergence.
  double min_step_fraction = 1e-3;
  int samples = 1;
};

class CompassStrategy final : public TuningStrategy {
 public:
  CompassStrategy(ParameterSpace space, CompassOptions opts);

  void start(std::size_t ranks) override;
  void propose_into(std::vector<Point>& out) override;
  void observe(std::span<const double> times) override;
  const Point& best_point() const override { return incumbent_; }
  double best_estimate() const override { return incumbent_value_; }
  bool converged() const override { return converged_; }
  std::string name() const override { return "CompassSearch"; }

 private:
  /// Fills pending_[0, n_pending_) with the poll around the incumbent.
  void fill_poll();
  void shrink_step();

  ParameterSpace space_;
  CompassOptions opts_;
  std::size_t ranks_ = 1;
  std::size_t active_slots_ = 0;

  Point incumbent_;
  double incumbent_value_ = 0.0;
  bool incumbent_known_ = false;
  std::vector<double> step_;  ///< per-axis absolute step
  // Recycled round storage: pending_ holds 2N points (the largest poll) of
  // which the first n_pending_ are live, and est_[i] is the running min of
  // pending point i's samples, so rounds allocate nothing.
  std::vector<Point> pending_;
  std::size_t n_pending_ = 0;
  std::vector<double> est_;
  int samples_done_ = 0;
  bool measuring_incumbent_ = true;
  bool converged_ = false;
};

}  // namespace protuner::core
