// Nelder-Mead simplex — the baseline the paper replaces (§3.1), as used in
// the original Active Harmony system.
//
// Standard moves on the line v_N + alpha (c - v_N) through the centroid c of
// the N best vertices (the paper's alpha in {0.5, 2, 3} corresponds to
// inside contraction, reflection and expansion).  Inherently sequential:
// one evaluation per application time step.  It is allowed to deform the
// simplex arbitrarily, which is precisely the degeneracy weakness the paper
// criticises — degenerate() on the simplex exposes it for the tests.
#pragma once

#include "core/batch_state.h"
#include "core/parameter_space.h"
#include "core/simplex.h"
#include "core/strategy.h"

namespace protuner::core {

/// The initial simplex is the minimal N+1 one of relative size 0.2, and
/// each point's K samples collapse by their minimum.
struct NelderMeadOptions {
  int samples = 1;
  /// Iteration cap after which the strategy freezes on its best vertex; 0
  /// disables.  NM has no reliable convergence certificate (§3.1), so the
  /// session otherwise keeps paying shrink steps forever.
  std::size_t max_iterations = 0;
};

class NelderMeadStrategy final : public TuningStrategy {
 public:
  NelderMeadStrategy(ParameterSpace space, NelderMeadOptions opts);

  void start(std::size_t ranks) override;
  void propose_into(std::vector<Point>& out) override;
  void observe(std::span<const double> times) override;
  const Point& best_point() const override { return simplex_.best(); }
  double best_estimate() const override { return simplex_.best_value(); }
  bool converged() const override { return frozen_; }
  std::string name() const override;

  std::size_t iterations() const { return iterations_; }
  const Simplex& simplex() const { return simplex_; }

 private:
  enum class Phase {
    kInitEval,
    kReflect,
    kExpand,
    kContract,
    kShrinkEval,
    kDone,
  };

  /// Measures the points staged in batch_ (one per time step).
  void begin_batch();
  /// Stages and begins the single point on the line through the worst
  /// vertex and centroid_ at `alpha`.
  void begin_along(double alpha);
  void on_batch_done();
  void start_iteration();
  void accept_worst_replacement(const Point& p, double v);

  ParameterSpace space_;
  NelderMeadOptions opts_;

  Simplex simplex_;
  Phase phase_ = Phase::kInitEval;
  BatchState batch_;
  std::size_t ranks_ = 1;
  std::size_t active_slots_ = 0;

  Point centroid_;
  Point reflect_point_;
  double reflect_value_ = 0.0;

  bool frozen_ = false;
  std::size_t iterations_ = 0;
};

}  // namespace protuner::core
