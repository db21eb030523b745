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
  pending_ = {incumbent_};
  pending_samples_.assign(1, {});
  samples_done_ = 0;
}

std::vector<Point> CompassStrategy::poll_points() const {
  std::vector<Point> pts;
  for (std::size_t i = 0; i < space_.size(); ++i) {
    for (const double sign : {+1.0, -1.0}) {
      Point p = incumbent_;
      p[i] += sign * step_[i];
      p = project(space_, incumbent_, p);
      if (p[i] == incumbent_[i]) {
        // Step too small for the grid or at a boundary: poll the immediate
        // admissible neighbour instead so the direction is still covered.
        p[i] = sign > 0.0 ? space_.param(i).neighbor_above(incumbent_[i])
                          : space_.param(i).neighbor_below(incumbent_[i]);
      }
      if (p != incumbent_) pts.push_back(std::move(p));
    }
  }
  return pts;
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
  const std::size_t n = std::max(pending_.size(), ranks_);
  out.resize(n);
  for (std::size_t i = 0; i < pending_.size(); ++i) out[i] = pending_[i];
  for (std::size_t i = pending_.size(); i < n; ++i) out[i] = incumbent_;
  active_slots_ = pending_.size();
}

void CompassStrategy::observe(std::span<const double> raw_times) {
  if (converged_ || active_slots_ == 0) return;
  const std::span<const double> times = raw_times.first(active_slots_);
  assert(times.size() == pending_.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    pending_samples_[i].push_back(times[i]);
  }
  ++samples_done_;
  if (samples_done_ < opts_.samples) return;  // keep sampling the same poll

  std::vector<double> est(pending_.size());
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    est[i] = *std::min_element(pending_samples_[i].begin(),
                               pending_samples_[i].end());
  }

  if (measuring_incumbent_) {
    incumbent_value_ = est.front();
    incumbent_known_ = true;
    measuring_incumbent_ = false;
  } else {
    const auto l = static_cast<std::size_t>(
        std::min_element(est.begin(), est.end()) - est.begin());
    if (est[l] < incumbent_value_) {
      incumbent_ = pending_[l];
      incumbent_value_ = est[l];
    } else {
      shrink_step();
      if (converged_) return;
    }
  }

  pending_ = poll_points();
  if (pending_.empty()) {
    converged_ = true;
    return;
  }
  pending_samples_.assign(pending_.size(), {});
  samples_done_ = 0;
}

}  // namespace protuner::core
