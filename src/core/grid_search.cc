#include "core/grid_search.h"

#include <algorithm>
#include <cassert>

namespace protuner::core {

namespace {

/// Levels sampled per continuous axis (discrete and integer axes enumerate
/// their admissible values exactly).
constexpr std::size_t kContinuousLevels = 9;

}  // namespace

GridSearchStrategy::GridSearchStrategy(ParameterSpace space)
    : space_(std::move(space)) {
  axes_.reserve(space_.size());
  for (std::size_t i = 0; i < space_.size(); ++i) {
    const Parameter& p = space_.param(i);
    std::vector<double> vals;
    switch (p.kind()) {
      case ParamKind::kDiscrete:
        vals = p.values();
        break;
      case ParamKind::kInteger:
        for (double v = p.lower(); v <= p.upper(); v += 1.0) {
          vals.push_back(v);
        }
        break;
      case ParamKind::kContinuous:
        for (std::size_t l = 0; l < kContinuousLevels; ++l) {
          vals.push_back(p.lower() +
                         p.range() * static_cast<double>(l) /
                             static_cast<double>(kContinuousLevels - 1));
        }
        break;
    }
    axes_.push_back(std::move(vals));
  }
}

std::size_t GridSearchStrategy::sweep_size() const {
  std::size_t n = 1;
  for (const auto& axis : axes_) n *= axis.size();
  return n;
}

void GridSearchStrategy::point_into(std::size_t flat_index, Point& out) const {
  out.resize(space_.size());
  for (std::size_t i = 0; i < space_.size(); ++i) {
    out[i] = axes_[i][flat_index % axes_[i].size()];
    flat_index /= axes_[i].size();
  }
}

void GridSearchStrategy::start(std::size_t ranks) {
  assert(ranks >= 1);
  ranks_ = ranks;
  cursor_ = 0;
  wave_ = 0;
  have_best_ = false;
  done_ = false;
  point_into(0, best_point_);
}

void GridSearchStrategy::propose_into(std::vector<Point>& out) {
  out.resize(ranks_);
  if (done_) {
    for (Point& slot : out) slot = best_point_;
    return;
  }
  // Not done, so cursor_ < sweep_size(): at least one point is pending.
  // pending_ never shrinks, so a short final wave keeps its Points for the
  // next start().
  wave_ = std::min(ranks_, sweep_size() - cursor_);
  if (pending_.size() < wave_) pending_.resize(wave_);
  for (std::size_t r = 0; r < wave_; ++r) {
    point_into(cursor_ + r, pending_[r]);
  }
  // Pad the final partial wave with the incumbent so all ranks stay busy.
  const Point& pad = have_best_ ? best_point_ : pending_.front();
  for (std::size_t r = 0; r < ranks_; ++r) {
    out[r] = r < wave_ ? pending_[r] : pad;
  }
}

void GridSearchStrategy::observe(std::span<const double> times) {
  if (done_ || wave_ == 0) return;
  assert(times.size() >= wave_);
  for (std::size_t i = 0; i < wave_; ++i) {
    if (!have_best_ || times[i] < best_value_) {
      best_value_ = times[i];
      best_point_ = pending_[i];
      have_best_ = true;
    }
  }
  cursor_ += wave_;
  if (cursor_ >= sweep_size()) done_ = true;
}

}  // namespace protuner::core
