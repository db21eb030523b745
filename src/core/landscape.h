// The clean (noise-free) performance function f(v) seen by the simulated
// cluster.  Real deployments measure f implicitly by running the program;
// the controlled studies in the paper (and here) drive the optimizers
// against a measured database or a synthetic surface plus a noise model.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "core/types.h"

namespace protuner::core {

/// Deterministic mapping from configuration to idle-system runtime per
/// application iteration.  Implementations: gs2::Database, the synthetic
/// test surfaces below, or any user lambda via FunctionLandscape.
class Landscape {
 public:
  virtual ~Landscape() = default;

  /// Idle-system time of one application iteration at configuration x.
  /// Must be strictly positive.
  virtual double clean_time(const Point& x) const = 0;

  /// Batch evaluation: out[i] = clean_time(xs[i]), one call per SPMD step
  /// (one candidate per rank).  No library landscape overrides the scalar
  /// loop; it stays virtual so a decorator can time a whole batch as one
  /// call.
  /// `out.size()` must equal `xs.size()`.
  virtual void clean_times(std::span<const Point> xs,
                           std::span<double> out) const;

  /// Always 0: every landscape is immutable and nothing in the library
  /// reads this.  It exists only because the perfbench tracing decorator
  /// overrides it; delete it with that override.
  virtual std::uint64_t version() const { return 0; }

  virtual std::string name() const = 0;
};

using LandscapePtr = std::shared_ptr<const Landscape>;

/// Wraps an arbitrary callable as a Landscape.
class FunctionLandscape final : public Landscape {
 public:
  FunctionLandscape(std::string name, std::function<double(const Point&)> fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}

  double clean_time(const Point& x) const override { return fn_(x); }
  std::string name() const override { return name_; }

 private:
  std::string name_;
  std::function<double(const Point&)> fn_;
};

/// Convex quadratic bowl centred at `minimum` with floor value `floor_time`:
/// the simplest convergence test case.
class QuadraticLandscape final : public Landscape {
 public:
  QuadraticLandscape(Point minimum, double floor_time, double curvature);

  double clean_time(const Point& x) const override;
  std::string name() const override { return "Quadratic"; }

  const Point& minimum() const { return minimum_; }
  double floor_time() const { return floor_time_; }

 private:
  Point minimum_;
  double floor_time_;
  double curvature_;
};

/// Rastrigin-style multimodal surface shifted to be strictly positive:
/// many regularly spaced local minima around a global minimum — a stress
/// test for the "unstructured optimization space" requirement (§1).
class MultimodalLandscape final : public Landscape {
 public:
  MultimodalLandscape(Point minimum, double floor_time, double amplitude,
                      double frequency);

  double clean_time(const Point& x) const override;
  std::string name() const override { return "Multimodal"; }

  const Point& minimum() const { return minimum_; }
  double floor_time() const { return floor_time_; }

 private:
  Point minimum_;
  double floor_time_;
  double amplitude_;
  double frequency_;
};

}  // namespace protuner::core
