#include "core/batch_state.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace protuner::core {

namespace {

/// Racing drops a candidate whose minimum is this far (relative) above the
/// wave leader's.
constexpr double kRacingMargin = 0.10;

}  // namespace

std::span<Point> BatchState::stage(std::size_t n) {
  assert(n >= 1);
  if (points_.size() < n) points_.resize(n);
  count_ = n;
  done_ = true;  // not measuring until start()
  return {points_.data(), n};
}

void BatchState::start(std::size_t ranks, const Options& opts) {
  assert(count_ >= 1);
  assert(ranks >= 1);
  assert(opts.samples >= 1);
  assert(!opts.racing || opts.estimator == EstimatorKind::kMin);
  // clear() and assign() keep capacity: a warm batch of this size reuses
  // every sample vector instead of reallocating it.
  if (samples_.size() < count_) samples_.resize(count_);
  for (std::size_t i = 0; i < count_; ++i) samples_[i].clear();
  estimates_.assign(count_, 0.0);
  racing_active_.assign(count_, true);
  opts_ = opts;
  ranks_ = ranks;
  wave_begin_ = 0;
  wave_end_ = 0;
  done_ = false;
  finish_wave();  // sets up the first wave
}

void BatchState::reset(std::span<const Point> points, std::size_t ranks,
                       const Options& opts) {
  const std::span<Point> staged = stage(points.size());
  std::copy(points.begin(), points.end(), staged.begin());
  start(ranks, opts);
}

void BatchState::finish_wave() {
  wave_begin_ = wave_end_;
  if (wave_begin_ >= count_) {
    for (std::size_t i = 0; i < count_; ++i) {
      // Trim to exactly K samples so replication does not change the
      // estimator's definition (extra replicated draws are discarded).
      auto& s = samples_[i];
      if (s.size() > static_cast<std::size_t>(opts_.samples)) {
        s.resize(static_cast<std::size_t>(opts_.samples));
      }
      estimates_[i] = reduce_samples(opts_.estimator, s);
    }
    done_ = true;
    return;
  }
  wave_end_ = std::min(count_, wave_begin_ + ranks_);
  const std::size_t wave = wave_end_ - wave_begin_;
  reps_per_point_ = 1;
  if (opts_.parallel_replicas) {
    reps_per_point_ = std::max<std::size_t>(1, ranks_ / wave);
    reps_per_point_ = std::min<std::size_t>(
        reps_per_point_, static_cast<std::size_t>(opts_.samples));
  }
  steps_needed_ = static_cast<int>(
      (static_cast<std::size_t>(opts_.samples) + reps_per_point_ - 1) /
      reps_per_point_);
  steps_done_ = 0;
  rebuild_slot_map();
}

void BatchState::rebuild_slot_map() {
  // Rep-major over the wave's (racing-active) points.  Deterministic given
  // the samples fed so far, so feed() can be validated against it even
  // before next_assignment() is called.
  slot_map_.clear();
  for (std::size_t rep = 0; rep < reps_per_point_; ++rep) {
    for (std::size_t i = wave_begin_; i < wave_end_; ++i) {
      if (racing_active_[i]) slot_map_.push_back(i);
    }
  }
  // Racing can eliminate everything but the leader; the leader always
  // keeps sampling (slot_map_ is never empty while the wave is open).
  assert(!slot_map_.empty());
}

std::size_t BatchState::next_assignment(std::span<Point> out) const {
  assert(!done_);
  assert(out.size() >= slot_map_.size());
  for (std::size_t s = 0; s < slot_map_.size(); ++s) {
    out[s] = points_[slot_map_[s]];
  }
  return slot_map_.size();
}

void BatchState::feed(std::span<const double> times) {
  assert(!done_);
  assert(times.size() == slot_map_.size());
  for (std::size_t s = 0; s < times.size(); ++s) {
    samples_[slot_map_[s]].push_back(times[s]);
  }
  ++steps_done_;
  if (steps_done_ >= steps_needed_) {
    finish_wave();
    return;
  }
  if (opts_.racing) {
    // Eliminate wave candidates whose running minimum is already beyond
    // the margin of the wave leader's minimum.
    double leader = std::numeric_limits<double>::infinity();
    for (std::size_t i = wave_begin_; i < wave_end_; ++i) {
      if (!samples_[i].empty()) {
        leader = std::min(
            leader, *std::min_element(samples_[i].begin(), samples_[i].end()));
      }
    }
    std::size_t best_idx = wave_begin_;
    double best_min = std::numeric_limits<double>::infinity();
    for (std::size_t i = wave_begin_; i < wave_end_; ++i) {
      if (samples_[i].empty()) continue;
      const double m =
          *std::min_element(samples_[i].begin(), samples_[i].end());
      if (m < best_min) {
        best_min = m;
        best_idx = i;
      }
      if (m > leader * (1.0 + kRacingMargin)) {
        racing_active_[i] = false;
      }
    }
    racing_active_[best_idx] = true;  // the leader always keeps sampling
    rebuild_slot_map();
  }
}

}  // namespace protuner::core
