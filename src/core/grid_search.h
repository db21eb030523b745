// Exhaustive grid search — evaluates every admissible configuration once
// (continuous axes are sampled at 9 evenly spaced levels), then pins the
// best.  The brute-force upper bound for small spaces, and the honest way
// to find a space's true optimum in tests and benches.
#pragma once

#include "core/parameter_space.h"
#include "core/strategy.h"

namespace protuner::core {

class GridSearchStrategy final : public TuningStrategy {
 public:
  explicit GridSearchStrategy(ParameterSpace space);

  void start(std::size_t ranks) override;
  void propose_into(std::vector<Point>& out) override;
  void observe(std::span<const double> times) override;
  const Point& best_point() const override { return best_point_; }
  double best_estimate() const override { return best_value_; }
  bool converged() const override { return done_; }
  std::string name() const override { return "GridSearch"; }

  /// Total points the sweep will evaluate.
  std::size_t sweep_size() const;

 private:
  /// Writes the sweep's point at `flat_index` into `out`, reusing its
  /// storage.
  void point_into(std::size_t flat_index, Point& out) const;

  ParameterSpace space_;
  std::size_t ranks_ = 1;

  std::vector<std::vector<double>> axes_;
  std::size_t cursor_ = 0;       ///< next flat index to evaluate
  std::vector<Point> pending_;   ///< the open wave's points, first wave_
  std::size_t wave_ = 0;         ///< points proposed in the open wave
  Point best_point_;
  double best_value_ = 0.0;
  bool have_best_ = false;
  bool done_ = false;
};

}  // namespace protuner::core
