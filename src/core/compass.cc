#include "core/compass.h"

#include <algorithm>
#include <cassert>

#include "core/projection.h"

namespace protuner::core {

CompassStrategy::CompassStrategy(ParameterSpace space, CompassOptions opts)
    : space_(std::move(space)), opts_(opts) {
  assert(opts.initial_step_fraction > 0.0);
  assert(opts.samples >= 1);
}

void CompassStrategy::start(std::size_t ranks) {
  ranks_ = std::max<std::size_t>(1, ranks);
  incumbent_ = space_.center();
  incumbent_known_ = false;
  converged_ = false;
  measuring_incumbent_ = true;
  step_.resize(space_.size());
  for (std::size_t i = 0; i < space_.size(); ++i) {
    step_[i] = opts_.initial_step_fraction * space_.param(i).range();
  }
  pending_.resize(2 * space_.size());
  pending_[0] = incumbent_;
  n_pending_ = 1;
  est_.reserve(pending_.size());
  samples_done_ = 0;
}

void CompassStrategy::fill_poll() {
  n_pending_ = 0;
  for (std::size_t i = 0; i < space_.size(); ++i) {
    for (const double sign : {+1.0, -1.0}) {
      Point& p = pending_[n_pending_];
      p = incumbent_;
      p[i] += sign * step_[i];
      project(space_, incumbent_, p, p);
      if (p[i] == incumbent_[i]) {
        // Step too small for the grid or at a boundary: poll the immediate
        // admissible neighbour instead so the direction is still covered.
        p[i] = sign > 0.0 ? space_.param(i).neighbor_above(incumbent_[i])
                          : space_.param(i).neighbor_below(incumbent_[i]);
      }
      if (p != incumbent_) ++n_pending_;
    }
  }
}

void CompassStrategy::shrink_step() {
  bool any_above_floor = false;
  for (std::size_t i = 0; i < space_.size(); ++i) {
    step_[i] *= 0.5;
    if (step_[i] > opts_.min_step_fraction * space_.param(i).range() &&
        (!space_.param(i).is_discrete_kind() || step_[i] >= 0.5)) {
      any_above_floor = true;
    }
  }
  if (!any_above_floor) converged_ = true;
}

void CompassStrategy::propose_into(std::vector<Point>& out) {
  // The pending poll first, the incumbent on every spare rank.  Copy-assigns
  // into the caller's buffer so the converged tail — incumbent on every
  // rank, forever — runs without allocating.
  if (converged_) {
    out.assign(ranks_, incumbent_);
    active_slots_ = 0;
    return;
  }
  const std::size_t n = std::max(n_pending_, ranks_);
  out.resize(n);
  for (std::size_t i = 0; i < n_pending_; ++i) out[i] = pending_[i];
  for (std::size_t i = n_pending_; i < n; ++i) out[i] = incumbent_;
  active_slots_ = n_pending_;
}

void CompassStrategy::observe(std::span<const double> raw_times) {
  if (converged_ || active_slots_ == 0) return;
  const std::span<const double> times = raw_times.first(active_slots_);
  assert(times.size() == n_pending_);
  // The running min keeps the first of equal samples and a leading NaN, as
  // std::min_element over all of them would.
  if (samples_done_ == 0) {
    est_.assign(times.begin(), times.end());
  } else {
    for (std::size_t i = 0; i < times.size(); ++i) {
      if (times[i] < est_[i]) est_[i] = times[i];
    }
  }
  ++samples_done_;
  if (samples_done_ < opts_.samples) return;  // keep sampling the same poll

  if (measuring_incumbent_) {
    incumbent_value_ = est_.front();
    incumbent_known_ = true;
    measuring_incumbent_ = false;
  } else {
    const auto l = static_cast<std::size_t>(
        std::min_element(est_.begin(), est_.end()) - est_.begin());
    if (est_[l] < incumbent_value_) {
      incumbent_ = pending_[l];
      incumbent_value_ = est_[l];
    } else {
      shrink_step();
      if (converged_) return;
    }
  }

  fill_poll();
  if (n_pending_ == 0) {
    converged_ = true;
    return;
  }
  samples_done_ = 0;
}

}  // namespace protuner::core
