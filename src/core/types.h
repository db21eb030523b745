// Basic vector type and arithmetic helpers shared by the search algorithms.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

namespace protuner::core {

/// A configuration: one value per tunable parameter.
using Point = std::vector<double>;

/// out = a * x + b * y, elementwise, reusing out's capacity.  The simplex
/// transformations (reflection 2v0 - v, expansion 3v0 - 2v, shrink
/// 0.5 v0 + 0.5 v) are all of this form.
inline void affine(double a, const Point& x, double b, const Point& y,
                   Point& out) {
  assert(x.size() == y.size());
  out.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = a * x[i] + b * y[i];
}

inline Point affine(double a, const Point& x, double b, const Point& y) {
  Point r;
  affine(a, x, b, y, r);
  return r;
}

/// Euclidean squared distance.
inline double distance2(const Point& x, const Point& y) {
  assert(x.size() == y.size());
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - y[i];
    s += d * d;
  }
  return s;
}

/// Exact equality (used for discrete-parameter convergence checks).
inline bool equal(const Point& x, const Point& y) {
  return x == y;
}

}  // namespace protuner::core
