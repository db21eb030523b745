// Simplex container and geometry for the rank-ordering algorithms.
//
// Vertices carry their (estimated) function values.  All transformations are
// taken *around the best vertex* v^0 (paper §3, Fig. 2):
//   reflection  r^j = 2 v^0 -   v^j
//   expansion   e^j = 3 v^0 - 2 v^j
//   shrink      s^j = (v^0 + v^j) / 2
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/parameter_space.h"
#include "core/projection.h"
#include "core/types.h"

namespace protuner::core {

/// A set of vertices with function values, kept sorted best-first on demand.
class Simplex {
 public:
  Simplex() = default;
  explicit Simplex(std::vector<Point> vertices);

  std::size_t size() const { return vertices_.size(); }
  std::size_t dimension() const {
    return vertices_.empty() ? 0 : vertices_.front().size();
  }

  const Point& vertex(std::size_t j) const { return vertices_[j]; }
  double value(std::size_t j) const { return values_[j]; }
  const std::vector<Point>& vertices() const { return vertices_; }
  const std::vector<double>& values() const { return values_; }

  void set_value(std::size_t j, double v) { values_[j] = v; }
  void set_values(std::span<const double> vals);
  /// Copy-assigns p over vertex j (reusing its capacity).
  void replace(std::size_t j, const Point& p, double value);
  /// Replaces the whole vertex set with `vs` and their values, reusing the
  /// vertex storage (it only reallocates when the vertex count grows).
  /// With keep_best the current best vertex and its value follow them as
  /// the last vertex.  Leaves the simplex unordered: call order().
  void assign(std::span<const Point> vs, std::span<const double> vals,
              bool keep_best);

  /// Sorts vertices so value(0) <= value(1) <= ... (paper's reorder step).
  /// Stable, so ties keep their previous relative order.  In place: no
  /// allocation.
  void order();

  /// Best vertex (requires order() since the last mutation).
  const Point& best() const { return vertices_.front(); }
  double best_value() const { return values_.front(); }

  /// Candidate transformations of every non-best vertex around the best,
  /// projected into the admissible region.  The out-parameter forms write
  /// vertex j's image into out[j - 1] (out.size() == size() - 1), reusing
  /// each Point's capacity.
  void reflections(const ParameterSpace& space, std::span<Point> out) const;
  void expansions(const ParameterSpace& space, std::span<Point> out) const;
  void shrinks(const ParameterSpace& space, std::span<Point> out) const;
  std::vector<Point> reflections(const ParameterSpace& space) const;
  std::vector<Point> expansions(const ParameterSpace& space) const;
  std::vector<Point> shrinks(const ParameterSpace& space) const;

  /// Expansion of a single vertex (the PRO expansion check), into `out`.
  void expansion_of(const ParameterSpace& space, const Point& target,
                    Point& out) const;

  /// True when all vertices coincide: exact equality on discrete axes,
  /// within the space tolerance on continuous axes (§3.2.2 trigger).
  bool collapsed(const ParameterSpace& space) const;

  /// Max vertex-to-best Euclidean distance (diagnostic).
  double diameter() const;

  /// True when the edge vectors v^j - v^0 do not span R^N — the degenerate
  /// state the paper criticises Nelder-Mead for (§3.1).  Uses rank via
  /// Gaussian elimination with partial pivoting on the edge matrix.
  bool degenerate(double tol = 1e-10) const;

 private:
  /// out[j - 1] = Pi(a v^0 + b v^j) for every non-best vertex j.
  void transform(const ParameterSpace& space, double a, double b,
                 std::span<Point> out) const;
  std::vector<Point> transformed(const ParameterSpace& space, double a,
                                 double b) const;

  std::vector<Point> vertices_;
  std::vector<double> values_;
};

/// The §3.2.2 stopping probe: writes the axial neighbours
/// {v0 + u_i e_i, v0 - l_i e_i} of `v0` to the front of `out` (which must
/// hold 2N entries) and returns how many there are.  On a boundary the
/// corresponding offset is zero and the point is dropped.
std::size_t probe_points(const ParameterSpace& space, const Point& v0,
                         std::span<Point> out);

/// Initial-simplex builders (§3.2.3 / §6.1).  `r` is the *relative size*:
/// the axial offset is b_i = r * (upper_i - lower_i) / 2, so the paper's
/// b_i = 0.1 (u - l) default corresponds to r = 0.2.
///
/// Minimal simplex: the centre c plus N axial points {Pi(c + b_i e_i)} —
/// N + 1 vertices.
Simplex minimal_simplex(const ParameterSpace& space, double r);

/// 2N simplex: {Pi(c +- b_i e_i)} — the shape the paper found markedly
/// better for discrete parameters.
Simplex axial_2n_simplex(const ParameterSpace& space, double r);

}  // namespace protuner::core
