#include "core/random_search.h"

#include <algorithm>
#include <cassert>

namespace protuner::core {

RandomSearchStrategy::RandomSearchStrategy(ParameterSpace space,
                                           std::uint64_t seed)
    : space_(std::move(space)), rng_(seed) {}

void RandomSearchStrategy::start(std::size_t ranks) {
  assert(ranks >= 1);
  ranks_ = ranks;
  have_best_ = false;
  proposals_.clear();
  for (std::size_t r = 0; r < ranks_; ++r) {
    proposals_.push_back(space_.random_point(rng_));
  }
}

void RandomSearchStrategy::propose_into(std::vector<Point>& out) {
  // Element-wise copy-assign: a warm buffer's Points are reused.
  out.resize(proposals_.size());
  std::copy(proposals_.begin(), proposals_.end(), out.begin());
}

void RandomSearchStrategy::observe(std::span<const double> times) {
  assert(times.size() == proposals_.size());
  for (std::size_t r = 0; r < times.size(); ++r) {
    if (!have_best_ || times[r] < best_value_) {
      best_value_ = times[r];
      best_point_ = proposals_[r];
      have_best_ = true;
    }
  }
  for (std::size_t r = 0; r < ranks_; ++r) {
    space_.random_point_into(rng_, proposals_[r]);
  }
}

}  // namespace protuner::core
