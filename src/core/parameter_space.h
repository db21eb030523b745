// Tunable-parameter declarations — the information an application hands to
// the tuning system (paper Section 1: "a list of the tunable parameters,
// and their type and range").
//
// Three parameter kinds cover the paper's constraint types (§3.2.1):
//   * Continuous: any value in [lo, hi]
//   * Integer:    whole numbers in [lo, hi]  (boundary + discrete constraint)
//   * Discrete:   an explicit sorted set of admissible values (internal
//                 discontinuity constraints, e.g. powers of two)
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/types.h"
#include "util/rng.h"

namespace protuner::core {

enum class ParamKind { kContinuous, kInteger, kDiscrete };

/// Index of the first element of the sorted, non-empty `v` not less than x,
/// i.e. std::lower_bound (v.size() when every element is below x).  This is
/// the repository's one discrete-value search: Parameter's lookups and the
/// gs2 database's grid index both go through it.  It is branch-free:
/// queries land on random values, so a compare-and-select loop beats a
/// mispredicted binary search.
inline std::size_t lower_index(std::span<const double> v, double x) {
  assert(!v.empty());
  std::size_t i = 0;
  for (std::size_t len = v.size(); len > 1; len -= len / 2) {
    i += v[i + len / 2] < x ? len / 2 : 0;
  }
  return i + (v[i] < x ? 1 : 0);
}

/// One tunable parameter.
class Parameter {
 public:
  /// Continuous parameter in [lo, hi].
  static Parameter continuous(std::string name, double lo, double hi);

  /// Integer parameter in [lo, hi] (inclusive).
  static Parameter integer(std::string name, long lo, long hi);

  /// Discrete parameter over an explicit admissible set (will be sorted,
  /// duplicates removed).  Must be non-empty.
  static Parameter discrete(std::string name, std::vector<double> values);

  const std::string& name() const { return name_; }
  ParamKind kind() const { return kind_; }
  double lower() const { return lo_; }
  double upper() const { return hi_; }
  double range() const { return hi_ - lo_; }
  bool is_discrete_kind() const { return kind_ != ParamKind::kContinuous; }

  /// The admissible set for discrete parameters (empty for others).
  const std::vector<double>& values() const { return values_; }

  /// core::lower_index over values(): the index of the first value not
  /// less than x.  kDiscrete only.
  std::size_t lower_index(double x) const {
    assert(kind_ == ParamKind::kDiscrete);
    return core::lower_index(values_, x);
  }

  /// True when x is an admissible value for this parameter (never for NaN).
  bool admissible(double x) const;

  /// Largest admissible value <= x (clamps to lower()).
  double floor_value(double x) const;

  /// Smallest admissible value >= x (clamps to upper()).
  double ceil_value(double x) const;

  /// The admissible neighbour immediately above x (x itself if at upper()).
  double neighbor_above(double x) const;

  /// The admissible neighbour immediately below x (x itself if at lower()).
  double neighbor_below(double x) const;

  /// Nearest admissible value to x.
  double nearest(double x) const;

 private:
  Parameter() = default;

  std::string name_;
  ParamKind kind_ = ParamKind::kContinuous;
  double lo_ = 0.0;
  double hi_ = 0.0;
  std::vector<double> values_;  // populated for kDiscrete only
};

/// The full N-dimensional admissible region.
class ParameterSpace {
 public:
  ParameterSpace() = default;
  explicit ParameterSpace(std::vector<Parameter> params);

  std::size_t size() const { return params_.size(); }
  const Parameter& param(std::size_t i) const { return params_[i]; }
  const std::vector<Parameter>& params() const { return params_; }

  /// Centre of the admissible region (snapped to admissibility per axis) —
  /// the anchor of the paper's initial simplex (§3.2.3).
  Point center() const;

  /// True when every coordinate of x is admissible.
  bool admissible(const Point& x) const;

  /// Snaps every coordinate to its nearest admissible value (bounds clamp +
  /// nearest discrete value).  This is *not* the paper's projection — see
  /// projection.h for the centre-directed Π operator.
  Point snap_nearest(const Point& x) const;

  /// Uniformly random admissible point, written into `out` (reusing its
  /// capacity).  One draw per axis, in axis order.
  void random_point_into(util::Rng& rng, Point& out) const;
  Point random_point(util::Rng& rng) const;

  /// Tolerance below which two continuous coordinates count as equal for the
  /// convergence check (§3.2.2).  Relative to each parameter's range.
  double continuous_tolerance(std::size_t i) const {
    return 1e-6 * params_[i].range();
  }

 private:
  std::vector<Parameter> params_;
};

}  // namespace protuner::core
