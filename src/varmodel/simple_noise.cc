#include "varmodel/simple_noise.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <sstream>
#include <vector>

namespace protuner::varmodel {

// ----------------------------------------------------------- ExponentialNoise

ExponentialNoise::ExponentialNoise(double rho) : rho_(rho) {
  assert(rho >= 0.0 && rho < 1.0);
}

double ExponentialNoise::sample(double clean_time, util::Rng& rng) const {
  assert(clean_time > 0.0);
  if (rho_ == 0.0) return 0.0;
  return expected(clean_time) * rng.exponential();
}

void ExponentialNoise::sample_batch(std::span<const double> clean,
                                    std::span<util::Rng> rngs,
                                    std::span<double> out) const {
  assert(clean.size() == out.size());
  assert(rngs.size() >= out.size());
  if (rho_ == 0.0) {
    // The scalar path returns 0 without touching the rng; so must we.
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  // One variate per rank in rank order — stream-identical to the scalar
  // loop — with the transform fused into the draw pass (log1p serialises
  // the loop anyway).  The expression associates exactly like
  // expected(clean) * rng.exponential().
  const double scale = rho_ / (1.0 - rho_);
  for (std::size_t i = 0; i < out.size(); ++i) {
    assert(clean[i] > 0.0);
    const double u = rngs[i].uniform();
    out[i] = scale * clean[i] * -std::log1p(-u);
  }
}

std::string ExponentialNoise::name() const {
  std::ostringstream ss;
  ss << "ExponentialNoise(rho=" << rho_ << ")";
  return ss.str();
}

// -------------------------------------------------------------- GaussianNoise

GaussianNoise::GaussianNoise(double rho, double cv) : rho_(rho), cv_(cv) {
  assert(rho >= 0.0 && rho < 1.0);
  assert(cv >= 0.0);
}

double GaussianNoise::sample(double clean_time, util::Rng& rng) const {
  assert(clean_time > 0.0);
  if (rho_ == 0.0) return 0.0;
  const double mu = rho_ / (1.0 - rho_) * clean_time;
  return std::max(0.0, rng.normal(mu, cv_ * mu));
}

double GaussianNoise::expected(double clean_time) const {
  // The truncation at 0 biases the mean slightly above mu for large cv; we
  // report the untruncated mean, which is what the model targets.
  return rho_ / (1.0 - rho_) * clean_time;
}

std::string GaussianNoise::name() const {
  std::ostringstream ss;
  ss << "GaussianNoise(rho=" << rho_ << ", cv=" << cv_ << ")";
  return ss.str();
}

// ----------------------------------------------------------------- TraceNoise

TraceNoise::TraceNoise(std::vector<double> relative_trace)
    : trace_(std::move(relative_trace)) {
  assert(!trace_.empty());
  min_rel_ = *std::min_element(trace_.begin(), trace_.end());
  mean_rel_ = std::accumulate(trace_.begin(), trace_.end(), 0.0) /
              static_cast<double>(trace_.size());
}

double TraceNoise::sample(double clean_time, util::Rng&) const {
  const double rel = trace_[cursor_];
  cursor_ = (cursor_ + 1) % trace_.size();
  return rel * clean_time;
}

double TraceNoise::n_min(double clean_time) const {
  return min_rel_ * clean_time;
}

double TraceNoise::expected(double clean_time) const {
  return mean_rel_ * clean_time;
}

}  // namespace protuner::varmodel
