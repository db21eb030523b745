// Parallel compass (coordinate) search — another member of the Generating
// Set Search family (Kolda, Lewis, Torczon 2003) the paper situates PRO in.
// Each iteration polls the 2N axial neighbours of the incumbent at the
// current step size, in waves of at most `ranks` points (one parallel round
// at >= 2N ranks), each wave sampled K times; success moves the incumbent,
// failure halves the step.  The step starts at a quarter of each parameter
// range, and the search converges once every step is below 0.1% of its
// range (and below one grid unit on discrete axes).  A useful second GSS
// reference point for the algorithm-comparison benches.
#pragma once

#include "core/parameter_space.h"
#include "core/strategy.h"

namespace protuner::core {

class CompassStrategy final : public TuningStrategy {
 public:
  /// `samples` is K: each poll point's estimate is its min-of-K.
  CompassStrategy(ParameterSpace space, int samples = 1);

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
  int samples_;
  std::size_t ranks_ = 1;
  std::size_t active_slots_ = 0;

  Point incumbent_;
  double incumbent_value_ = 0.0;
  std::vector<double> step_;  ///< per-axis absolute step
  // Recycled round storage: pending_ holds 2N points (the largest poll) of
  // which the first n_pending_ are live, and est_[i] is the running min of
  // pending point i's samples, so rounds allocate nothing.  The wave being
  // sampled starts at wave_begin_ and spans active_slots_ points.
  std::vector<Point> pending_;
  std::size_t n_pending_ = 0;
  std::size_t wave_begin_ = 0;
  std::vector<double> est_;
  int samples_done_ = 0;
  bool measuring_incumbent_ = true;
  bool converged_ = false;
};

}  // namespace protuner::core
