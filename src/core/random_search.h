// Pure random search: every time step evaluates `ranks` uniformly random
// configurations and keeps the best ever seen.  The weakest sensible
// baseline — any structured search must beat it on Total_Time.
#pragma once

#include "core/parameter_space.h"
#include "core/strategy.h"

namespace protuner::core {

class RandomSearchStrategy final : public TuningStrategy {
 public:
  RandomSearchStrategy(ParameterSpace space, std::uint64_t seed);

  void start(std::size_t ranks) override;
  void propose_into(std::vector<Point>& out) override;
  void observe(std::span<const double> times) override;
  const Point& best_point() const override { return best_point_; }
  double best_estimate() const override { return best_value_; }
  bool converged() const override { return false; }
  std::string name() const override { return "RandomSearch"; }

 private:
  ParameterSpace space_;
  util::Rng rng_;
  std::size_t ranks_ = 1;
  std::vector<Point> proposals_;
  Point best_point_;
  double best_value_ = 0.0;
  bool have_best_ = false;
};

}  // namespace protuner::core
