#include "core/spsa.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/projection.h"

namespace protuner::core {

namespace {

// Gain schedules a_k = kA / (kBigA + k)^kAlpha and c_k = kC / k^kGamma.
constexpr double kA = 0.2;        ///< gain numerator (normalised units)
constexpr double kC = 0.1;        ///< initial perturbation, range fraction
constexpr double kBigA = 10.0;    ///< stability offset in the a_k schedule
constexpr double kAlpha = 0.602;  ///< gain decay exponent (Spall)
constexpr double kGamma = 0.101;  ///< perturbation decay exponent (Spall)

}  // namespace

SpsaStrategy::SpsaStrategy(ParameterSpace space, std::uint64_t seed)
    : space_(std::move(space)), seed_(seed), rng_(seed) {}

void SpsaStrategy::start(std::size_t ranks) {
  assert(ranks >= 1);
  ranks_ = ranks;
  rng_.reseed(seed_);
  const std::size_t n = space_.size();
  z_.assign(n, 0.0);
  const Point c = space_.center();
  for (std::size_t i = 0; i < n; ++i) {
    const Parameter& p = space_.param(i);
    z_[i] = p.range() > 0.0 ? (c[i] - p.lower()) / p.range() : 0.5;
  }
  delta_.assign(n, 1.0);
  zp_.assign(n, 0.0);
  zm_.assign(n, 0.0);
  anchor_ = c;
  best_point_ = c;
  best_value_ = 0.0;
  have_best_ = false;
  have_pair_ = false;
  awaiting_minus_ = false;
  y_scale_ = 0.0;
  iterations_ = 0;
  prepare_probes();
}

void SpsaStrategy::project_z(const std::vector<double>& z, Point& out) const {
  out.resize(z.size());
  for (std::size_t i = 0; i < z.size(); ++i) {
    const Parameter& par = space_.param(i);
    out[i] = par.lower() + z[i] * par.range();
  }
  project(space_, anchor_, out, out);
}

void SpsaStrategy::prepare_probes() {
  const std::size_t k = iterations_ + 1;  // 1-based schedule index
  ck_ = kC / std::pow(static_cast<double>(k), kGamma);
  // Π(θ) is anchored at the previous anchor, so it is built in plus_ (about
  // to be rebuilt anyway) and swapped in.
  project_z(z_, plus_);
  anchor_.swap(plus_);
  for (std::size_t i = 0; i < z_.size(); ++i) {
    delta_[i] = rng_.bernoulli(0.5) ? 1.0 : -1.0;
    zp_[i] = std::clamp(z_[i] + ck_ * delta_[i], 0.0, 1.0);
    zm_[i] = std::clamp(z_[i] - ck_ * delta_[i], 0.0, 1.0);
  }
  project_z(zp_, plus_);
  project_z(zm_, minus_);
}

void SpsaStrategy::propose_into(std::vector<Point>& out) {
  if (ranks_ >= 3) {
    // A third rank is free: measure the iterate Π(θ) itself so the best
    // point can settle on the anchor, not just the perturbed probes.
    out.resize(3);
    out[0] = plus_;
    out[1] = minus_;
    out[2] = anchor_;
    return;
  }
  if (ranks_ == 2) {
    out.resize(2);
    out[0] = plus_;
    out[1] = minus_;
    return;
  }
  out.resize(1);
  out[0] = awaiting_minus_ ? minus_ : plus_;
}

void SpsaStrategy::track_best(const Point& p, double y) {
  if (!have_best_ || y < best_value_) {
    best_point_ = p;
    best_value_ = y;
    have_best_ = true;
  }
}

void SpsaStrategy::observe(std::span<const double> times) {
  assert(!times.empty());

  double y_plus = 0.0, y_minus = 0.0;
  if (ranks_ >= 2) {
    assert(times.size() >= 2);
    y_plus = times[0];
    y_minus = times[1];
  } else {
    if (!awaiting_minus_) {
      // First half of the ranks==1 pair: stash y+ and wait for y-.
      y_plus_ = times[0];
      track_best(plus_, times[0]);
      awaiting_minus_ = true;
      return;
    }
    y_plus = y_plus_;
    y_minus = times[0];
    awaiting_minus_ = false;
  }
  track_best(plus_, y_plus);
  track_best(minus_, y_minus);
  if (ranks_ >= 3 && times.size() >= 3) track_best(anchor_, times[2]);

  if (y_scale_ == 0.0) {
    y_scale_ = std::max(1e-12, 0.5 * (std::abs(y_plus) + std::abs(y_minus)));
  }

  const std::size_t k = iterations_ + 1;
  const double ak = kA / std::pow(kBigA + static_cast<double>(k), kAlpha);
  const double diff = (y_plus - y_minus) / y_scale_;
  for (std::size_t i = 0; i < z_.size(); ++i) {
    const double g = diff / (2.0 * ck_ * delta_[i]);
    z_[i] = std::clamp(z_[i] - ak * g, 0.0, 1.0);
  }
  ++iterations_;
  prepare_probes();
}

}  // namespace protuner::core
