// SRO — Sequential Rank Ordering (paper Algorithm 1).
//
// The sequential ancestor of PRO: one evaluation per application time step.
// Each iteration reflects only the *worst* vertex through the best as the
// acceptance test (r = 2 v^0 - v^n); on success it optionally checks the
// expansion e = 3 v^0 - 2 v^n, then applies the accepted transformation to
// every non-best vertex, evaluating the transformed vertices one at a time.
#pragma once

#include "core/batch_state.h"
#include "core/parameter_space.h"
#include "core/simplex.h"
#include "core/strategy.h"

namespace protuner::core {

class SroStrategy final : public TuningStrategy {
 public:
  /// `samples` is K, the min-of-K observations per evaluated point.  The
  /// simplex is the 2N axial one of relative size 0.2, and a collapsed
  /// simplex runs the §3.2.2 probe before it freezes.
  SroStrategy(ParameterSpace space, int samples = 1);

  void start(std::size_t ranks) override;
  void propose_into(std::vector<Point>& out) override;
  void observe(std::span<const double> times) override;
  const Point& best_point() const override { return simplex_.best(); }
  double best_estimate() const override { return simplex_.best_value(); }
  bool converged() const override { return converged_; }
  std::string name() const override;

  std::size_t iterations() const { return iterations_; }

 private:
  enum class Phase {
    kInitEval,
    kReflectCheck,
    kExpandCheck,
    kApplyExpand,
    kApplyReflect,
    kApplyShrink,
    kProbe,
    kDone,
  };

  /// Measures the points staged in batch_ (one per time step).
  void begin_batch();
  /// Stages and begins the single point Pi(a v^0 + b v^n) (Algorithm 1's
  /// reflection/expansion check of the worst vertex).
  void begin_worst_move(double a, double b);
  void on_batch_done();
  void after_accept();

  ParameterSpace space_;
  int samples_;

  Simplex simplex_;
  Phase phase_ = Phase::kInitEval;
  BatchState batch_;
  std::size_t ranks_ = 1;
  std::size_t active_slots_ = 0;

  Point reflect_point_;
  double reflect_value_ = 0.0;

  bool converged_ = false;
  std::size_t iterations_ = 0;
};

}  // namespace protuner::core
