#include "varmodel/pareto_noise.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace protuner::varmodel {

ParetoNoise::ParetoNoise(double rho, double alpha) : rho_(rho), alpha_(alpha) {
  assert(rho >= 0.0 && rho < 1.0);
  assert(alpha > 1.0);  // Eq. 17 needs a finite mean
}

double ParetoNoise::beta(double clean_time) const {
  return (alpha_ - 1.0) * rho_ / ((1.0 - rho_) * alpha_) * clean_time;
}

double ParetoNoise::sample(double clean_time, util::Rng& rng) const {
  assert(clean_time > 0.0);
  if (rho_ == 0.0) return 0.0;
  const stats::Pareto p(alpha_, beta(clean_time));
  return p.sample(rng);
}

void ParetoNoise::sample_batch(std::span<const double> clean,
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
  // loop — with the inverse-CDF transform fused into the draw pass (pow
  // serialises the loop anyway, so a second pass only adds memory
  // traffic).  The per-sample constants are hoisted: `k * clean`
  // associates exactly like beta(clean) and `inv_alpha` is the same
  // quotient Pareto::sample computes, so each result is bit-identical to
  // stats::Pareto(alpha_, beta(clean)).sample(rng).
  const double k = (alpha_ - 1.0) * rho_ / ((1.0 - rho_) * alpha_);
  const double inv_alpha = -1.0 / alpha_;
  for (std::size_t i = 0; i < out.size(); ++i) {
    assert(clean[i] > 0.0);
    const double u = rngs[i].uniform();
    out[i] = k * clean[i] * std::pow(1.0 - u, inv_alpha);
  }
}

double ParetoNoise::expected(double clean_time) const {
  return rho_ / (1.0 - rho_) * clean_time;  // Eq. 7
}

std::string ParetoNoise::name() const {
  std::ostringstream ss;
  ss << "ParetoNoise(rho=" << rho_ << ", alpha=" << alpha_ << ")";
  return ss.str();
}

}  // namespace protuner::varmodel
