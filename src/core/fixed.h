// A non-tuning strategy that pins every rank to one configuration.  Used by
// the variability studies (Fig. 3 traces) and as the "no tuning" baseline.
#pragma once

#include "core/strategy.h"

namespace protuner::core {

class FixedStrategy final : public TuningStrategy {
 public:
  explicit FixedStrategy(Point config) : config_(std::move(config)) {}

  void start(std::size_t ranks) override { ranks_ = ranks; }

  void propose_into(std::vector<Point>& out) override {
    // Copy-assign into recycled capacity: after the first round the fixed
    // assignment is republished with zero allocations.
    out.resize(ranks_);
    for (Point& slot : out) slot = config_;
  }

  void observe(std::span<const double>) override {}
  const Point& best_point() const override { return config_; }
  double best_estimate() const override { return 0.0; }
  bool converged() const override { return true; }
  std::string name() const override { return "Fixed"; }

 private:
  Point config_;
  std::size_t ranks_ = 1;
};

}  // namespace protuner::core
