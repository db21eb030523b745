#include "core/parameter_space.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace protuner::core {

Parameter Parameter::continuous(std::string name, double lo, double hi) {
  assert(hi > lo);
  Parameter p;
  p.name_ = std::move(name);
  p.kind_ = ParamKind::kContinuous;
  p.lo_ = lo;
  p.hi_ = hi;
  return p;
}

Parameter Parameter::integer(std::string name, long lo, long hi) {
  assert(hi > lo);
  Parameter p;
  p.name_ = std::move(name);
  p.kind_ = ParamKind::kInteger;
  p.lo_ = static_cast<double>(lo);
  p.hi_ = static_cast<double>(hi);
  return p;
}

Parameter Parameter::discrete(std::string name, std::vector<double> values) {
  assert(!values.empty());
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  Parameter p;
  p.name_ = std::move(name);
  p.kind_ = ParamKind::kDiscrete;
  p.lo_ = values.front();
  p.hi_ = values.back();
  p.values_ = std::move(values);
  return p;
}

bool Parameter::admissible(double x) const {
  if (x < lo_ || x > hi_) return false;
  switch (kind_) {
    case ParamKind::kContinuous:
      return true;
    case ParamKind::kInteger:
      return x == std::floor(x);
    case ParamKind::kDiscrete:
      // lower_index puts values_[i] >= x, so this is equality.  A NaN x
      // orders against no value and passes, as under std::binary_search.
      return !(x < values_[lower_index(x)]);
  }
  return false;
}

double Parameter::floor_value(double x) const {
  if (x <= lo_) return lo_;
  if (x >= hi_) return hi_;
  switch (kind_) {
    case ParamKind::kContinuous:
      return x;
    case ParamKind::kInteger:
      return std::floor(x);
    case ParamKind::kDiscrete: {
      // Largest value <= x.  lo_ < x < hi_ puts i in [1, size - 1]; only a
      // NaN x reaches i == 0, and it takes hi_ as under std::upper_bound.
      const std::size_t i = lower_index(x);
      if (i == 0) return hi_;
      return values_[values_[i] == x ? i : i - 1];
    }
  }
  return x;
}

double Parameter::ceil_value(double x) const {
  if (x <= lo_) return lo_;
  if (x >= hi_) return hi_;
  switch (kind_) {
    case ParamKind::kContinuous:
      return x;
    case ParamKind::kInteger:
      return std::ceil(x);
    case ParamKind::kDiscrete:
      return values_[lower_index(x)];
  }
  return x;
}

double Parameter::neighbor_above(double x) const {
  switch (kind_) {
    case ParamKind::kContinuous:
      assert(admissible(x));
      return std::min(hi_, x + 1e-6 * range());
    case ParamKind::kInteger:
      assert(admissible(x));
      return std::min(hi_, x + 1.0);
    case ParamKind::kDiscrete: {
      // The admissibility check and the lookup share one search.
      const std::size_t i = lower_index(x);
      assert(i < values_.size() && values_[i] == x);
      return i + 1 < values_.size() ? values_[i + 1] : x;
    }
  }
  return x;
}

double Parameter::neighbor_below(double x) const {
  switch (kind_) {
    case ParamKind::kContinuous:
      assert(admissible(x));
      return std::max(lo_, x - 1e-6 * range());
    case ParamKind::kInteger:
      assert(admissible(x));
      return std::max(lo_, x - 1.0);
    case ParamKind::kDiscrete: {
      const std::size_t i = lower_index(x);
      assert(i < values_.size() && values_[i] == x);
      return i == 0 ? x : values_[i - 1];
    }
  }
  return x;
}

double Parameter::nearest(double x) const {
  const double lo = floor_value(x);
  const double hi = ceil_value(x);
  return (x - lo <= hi - x) ? lo : hi;
}

ParameterSpace::ParameterSpace(std::vector<Parameter> params)
    : params_(std::move(params)) {
  assert(!params_.empty());
}

Point ParameterSpace::center() const {
  Point c(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    c[i] = params_[i].nearest(0.5 * (params_[i].lower() + params_[i].upper()));
  }
  return c;
}

bool ParameterSpace::admissible(const Point& x) const {
  if (x.size() != params_.size()) return false;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (!params_[i].admissible(x[i])) return false;
  }
  return true;
}

Point ParameterSpace::snap_nearest(const Point& x) const {
  assert(x.size() == params_.size());
  Point out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = params_[i].nearest(
        std::clamp(x[i], params_[i].lower(), params_[i].upper()));
  }
  return out;
}

void ParameterSpace::random_point_into(util::Rng& rng, Point& out) const {
  out.resize(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const auto& p = params_[i];
    switch (p.kind()) {
      case ParamKind::kContinuous:
        out[i] = rng.uniform(p.lower(), p.upper());
        break;
      case ParamKind::kInteger:
        out[i] = static_cast<double>(rng.uniform_int(
            static_cast<long>(p.lower()), static_cast<long>(p.upper())));
        break;
      case ParamKind::kDiscrete: {
        const auto idx = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<long>(p.values().size()) - 1));
        out[i] = p.values()[idx];
        break;
      }
    }
  }
}

Point ParameterSpace::random_point(util::Rng& rng) const {
  Point out;
  random_point_into(rng, out);
  return out;
}

}  // namespace protuner::core
