#include "core/simplex.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace protuner::core {

Simplex::Simplex(std::vector<Point> vertices)
    : vertices_(std::move(vertices)),
      values_(vertices_.size(), std::numeric_limits<double>::quiet_NaN()) {
  assert(!vertices_.empty());
}

void Simplex::set_values(std::span<const double> vals) {
  assert(vals.size() == values_.size());
  std::copy(vals.begin(), vals.end(), values_.begin());
}

void Simplex::replace(std::size_t j, const Point& p, double value) {
  assert(j < vertices_.size());
  vertices_[j] = p;
  values_[j] = value;
}

void Simplex::assign(std::span<const Point> vs,
                     std::span<const double> vals, bool keep_best) {
  assert(vs.size() == vals.size());
  assert(!vs.empty());
  assert(!keep_best || !vertices_.empty());
  const std::size_t n = vs.size() + (keep_best ? 1 : 0);
  vertices_.resize(n);
  values_.resize(n);
  if (keep_best) {
    // Park the best vertex in the last slot before vs overwrites slot 0.
    vertices_[0].swap(vertices_[n - 1]);
    values_[n - 1] = values_[0];
  }
  for (std::size_t j = 0; j < vs.size(); ++j) {
    vertices_[j] = vs[j];
    values_[j] = vals[j];
  }
}

void Simplex::order() {
  // Insertion sort on (value, vertex) pairs: a vertex moves left only past
  // strictly larger values, which is exactly the stable order, and the
  // swaps exchange Point buffers instead of copying them.
  for (std::size_t i = 1; i < size(); ++i) {
    for (std::size_t j = i; j > 0 && values_[j] < values_[j - 1]; --j) {
      std::swap(values_[j], values_[j - 1]);
      vertices_[j].swap(vertices_[j - 1]);
    }
  }
}

void Simplex::transform(const ParameterSpace& space, double a, double b,
                        std::span<Point> out) const {
  assert(out.size() + 1 == size());
  for (std::size_t j = 1; j < size(); ++j) {
    Point& p = out[j - 1];
    affine(a, best(), b, vertex(j), p);
    project(space, best(), p, p);
  }
}

std::vector<Point> Simplex::transformed(const ParameterSpace& space, double a,
                                        double b) const {
  std::vector<Point> out(size() - 1);
  transform(space, a, b, out);
  return out;
}

void Simplex::reflections(const ParameterSpace& space,
                          std::span<Point> out) const {
  transform(space, 2.0, -1.0, out);
}

void Simplex::expansions(const ParameterSpace& space,
                         std::span<Point> out) const {
  transform(space, 3.0, -2.0, out);
}

void Simplex::shrinks(const ParameterSpace& space,
                      std::span<Point> out) const {
  transform(space, 0.5, 0.5, out);
}

std::vector<Point> Simplex::reflections(const ParameterSpace& space) const {
  return transformed(space, 2.0, -1.0);
}

std::vector<Point> Simplex::expansions(const ParameterSpace& space) const {
  return transformed(space, 3.0, -2.0);
}

std::vector<Point> Simplex::shrinks(const ParameterSpace& space) const {
  return transformed(space, 0.5, 0.5);
}

void Simplex::expansion_of(const ParameterSpace& space, const Point& target,
                           Point& out) const {
  affine(3.0, best(), -2.0, target, out);
  project(space, best(), out, out);
}

bool Simplex::collapsed(const ParameterSpace& space) const {
  for (std::size_t j = 1; j < size(); ++j) {
    for (std::size_t i = 0; i < space.size(); ++i) {
      const double d = std::fabs(vertex(j)[i] - best()[i]);
      if (space.param(i).is_discrete_kind()) {
        if (d != 0.0) return false;
      } else if (d > space.continuous_tolerance(i)) {
        return false;
      }
    }
  }
  return true;
}

double Simplex::diameter() const {
  double d2 = 0.0;
  for (std::size_t j = 1; j < size(); ++j) {
    d2 = std::max(d2, distance2(vertex(0), vertex(j)));
  }
  return std::sqrt(d2);
}

bool Simplex::degenerate(double tol) const {
  const std::size_t n = dimension();
  const std::size_t m = size() - 1;  // edge vectors
  if (m < n) return true;            // cannot span
  // Row-reduce the m x n edge matrix and count pivots.
  std::vector<std::vector<double>> a(m, std::vector<double>(n));
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      a[j][i] = vertices_[j + 1][i] - vertices_[0][i];
    }
  }
  std::size_t rank = 0;
  for (std::size_t col = 0; col < n && rank < m; ++col) {
    // Partial pivot.
    std::size_t piv = rank;
    for (std::size_t rrow = rank + 1; rrow < m; ++rrow) {
      if (std::fabs(a[rrow][col]) > std::fabs(a[piv][col])) piv = rrow;
    }
    if (std::fabs(a[piv][col]) <= tol) continue;
    std::swap(a[piv], a[rank]);
    for (std::size_t rrow = rank + 1; rrow < m; ++rrow) {
      const double factor = a[rrow][col] / a[rank][col];
      for (std::size_t c = col; c < n; ++c) a[rrow][c] -= factor * a[rank][c];
    }
    ++rank;
  }
  return rank < n;
}

std::size_t probe_points(const ParameterSpace& space, const Point& v0,
                         std::span<Point> out) {
  assert(out.size() >= 2 * space.size());
  std::size_t n = 0;
  for (std::size_t i = 0; i < space.size(); ++i) {
    const Parameter& par = space.param(i);
    const double up = par.neighbor_above(v0[i]);
    if (up != v0[i]) {
      out[n] = v0;
      out[n++][i] = up;
    }
    const double dn = par.neighbor_below(v0[i]);
    if (dn != v0[i]) {
      out[n] = v0;
      out[n++][i] = dn;
    }
  }
  return n;
}

namespace {

/// Axial offsets b_i = r (u_i - l_i) / 2.
std::vector<double> axial_offsets(const ParameterSpace& space, double r) {
  std::vector<double> b(space.size());
  for (std::size_t i = 0; i < space.size(); ++i) {
    b[i] = 0.5 * r * space.param(i).range();
  }
  return b;
}

}  // namespace

namespace {

/// Projects an axial offset vertex, then enforces the §3.2.3 non-degeneracy
/// requirement: if centre-directed rounding collapsed axis i back onto the
/// centre (possible for small r on discrete axes), push it to the adjacent
/// admissible value instead so the initial simplex still spans axis i.
Point axial_vertex(const ParameterSpace& space, const Point& c, std::size_t i,
                   double offset) {
  Point v = c;
  v[i] += offset;
  Point out = project(space, c, v);
  if (out[i] == c[i]) {
    out[i] = offset > 0.0 ? space.param(i).neighbor_above(c[i])
                          : space.param(i).neighbor_below(c[i]);
  }
  return out;
}

}  // namespace

Simplex minimal_simplex(const ParameterSpace& space, double r) {
  assert(r > 0.0);
  const Point c = space.center();
  const std::vector<double> b = axial_offsets(space, r);
  std::vector<Point> vs;
  vs.reserve(space.size() + 1);
  vs.push_back(c);
  for (std::size_t i = 0; i < space.size(); ++i) {
    vs.push_back(axial_vertex(space, c, i, b[i]));
  }
  return Simplex(std::move(vs));
}

Simplex axial_2n_simplex(const ParameterSpace& space, double r) {
  assert(r > 0.0);
  const Point c = space.center();
  const std::vector<double> b = axial_offsets(space, r);
  std::vector<Point> vs;
  vs.reserve(2 * space.size());
  for (std::size_t i = 0; i < space.size(); ++i) {
    vs.push_back(axial_vertex(space, c, i, b[i]));
    vs.push_back(axial_vertex(space, c, i, -b[i]));
  }
  return Simplex(std::move(vs));
}

}  // namespace protuner::core
