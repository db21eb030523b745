#include "core/annealing.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace protuner::core {

namespace {

constexpr double kInitialTemperature = 1.0;  ///< relative to best_value_
constexpr double kCooling = 0.98;            ///< T <- kCooling * T per step
/// Neighbour scale: step stddev as a fraction of each parameter range.
constexpr double kStepFraction = 0.1;

}  // namespace

AnnealingStrategy::AnnealingStrategy(ParameterSpace space,
                                     AnnealingOptions opts)
    : space_(std::move(space)), opts_(opts) {}

void AnnealingStrategy::start(std::size_t ranks) {
  assert(ranks >= 1);
  rngs_ = util::Rng(opts_.seed).split_streams(ranks);
  current_.clear();
  for (std::size_t r = 0; r < ranks; ++r) {
    current_.push_back(space_.random_point(rngs_[r]));
  }
  current_value_.assign(ranks, 0.0);
  temperature_ = kInitialTemperature;
  step_scale_ = 1.0;
  steps_seen_ = 0;
  best_point_ = current_.front();
  best_value_ = 0.0;
  first_observation_ = true;
  proposals_ = current_;  // first step measures the starting points
}

void AnnealingStrategy::propose_into(std::vector<Point>& out) {
  // Element-wise copy so the per-rank Point buffers are reused: the chains
  // propose every step forever, making this the steady-state path.
  out.resize(proposals_.size());
  for (std::size_t r = 0; r < proposals_.size(); ++r) out[r] = proposals_[r];
}

void AnnealingStrategy::neighbor_into(const Point& x, util::Rng& rng,
                                      Point& out) const {
  out = x;
  // Move probability / step size shrink with step_scale_ so late proposals
  // hug the incumbent and the tail iteration cost settles.
  const double move_prob = 0.45 * step_scale_;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Parameter& par = space_.param(i);
    if (par.is_discrete_kind()) {
      const double u = rng.uniform();
      if (u < move_prob) {
        out[i] = par.neighbor_above(out[i]);
      } else if (u < 2.0 * move_prob) {
        out[i] = par.neighbor_below(out[i]);
      }
    } else {
      out[i] = std::clamp(
          out[i] +
              rng.normal(0.0, kStepFraction * step_scale_ * par.range()),
          par.lower(), par.upper());
    }
  }
}

void AnnealingStrategy::observe(std::span<const double> times) {
  assert(times.size() == proposals_.size());
  if (first_observation_) {
    for (std::size_t r = 0; r < times.size(); ++r) {
      current_value_[r] = times[r];
      if (r == 0 || times[r] < best_value_) {
        best_value_ = times[r];
        best_point_ = current_[r];
      }
    }
    first_observation_ = false;
  } else {
    for (std::size_t r = 0; r < times.size(); ++r) {
      const double delta = times[r] - current_value_[r];
      const bool accept =
          delta <= 0.0 ||
          rngs_[r].uniform() < std::exp(-delta / std::max(1e-12, temperature_ *
                                                                    best_value_));
      if (accept) {
        current_[r] = proposals_[r];
        current_value_[r] = times[r];
      }
      if (times[r] < best_value_) {
        best_value_ = times[r];
        best_point_ = proposals_[r];
      }
    }
    temperature_ *= kCooling;
    step_scale_ *= opts_.step_decay;
  }
  ++steps_seen_;
  if (opts_.migrate_every != 0 && steps_seen_ % opts_.migrate_every == 0) {
    // Best-of-chains migration: restart every chain from the incumbent.
    for (std::size_t r = 0; r < current_.size(); ++r) {
      current_[r] = best_point_;
      current_value_[r] = best_value_;
    }
  }
  for (std::size_t r = 0; r < current_.size(); ++r) {
    neighbor_into(current_[r], rngs_[r], proposals_[r]);
  }
}

}  // namespace protuner::core
