// Shared machinery for evaluating a batch of candidate configurations under
// the bulk-synchronous step model, with K-sample repetition (§5.2).
//
// A batch of M points is measured on R ranks in waves of min(M, R) points.
// Each wave is re-proposed for enough consecutive time steps to gather K
// samples per point.  When spare ranks are available and parallel replicas
// are enabled (§5.2: "if there are 64 parallel processors ... we can set
// K=10 with no additional cost"), each point is replicated across
// floor(R / wave) ranks so several samples arrive per step.
//
// Storage is recycled across batches: the point, sample, estimate and
// racing buffers only ever grow, so once a strategy has run its largest
// batch, staging, assigning and feeding a batch of the same shape never
// touch the heap.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/estimator.h"
#include "core/types.h"

namespace protuner::core {

class BatchState {
 public:
  struct Options {
    int samples = 1;                       ///< K
    EstimatorKind estimator = EstimatorKind::kMin;
    bool parallel_replicas = false;        ///< use spare ranks for samples
    /// Racing elimination: after each sampling round, candidates whose
    /// current minimum already exceeds 1.1 times the best candidate's
    /// minimum stop being re-measured — their estimate is the min of the
    /// samples they have.  Because the step cost is the max over the batch,
    /// not re-running clear losers directly lowers T_k.  Requires the kMin
    /// estimator; only meaningful with K > 1.
    bool racing = false;
  };

  BatchState() = default;

  /// Recycled storage for the next batch's `n` points, to be written before
  /// start() begins measuring them.  Entries keep what they held (earlier
  /// batches' points, or empty Points), so re-staging a shorter prefix
  /// keeps the points already written there.  Never shrinks the underlying
  /// buffer: a batch that follows a larger one reuses its Points' capacity.
  std::span<Point> stage(std::size_t n);

  /// Begins measuring the staged points; `ranks` is the machine's
  /// parallel width.
  void start(std::size_t ranks, const Options& opts);

  /// stage() a copy of `points`, then start().
  void reset(std::span<const Point> points, std::size_t ranks,
             const Options& opts);

  bool active() const { return count_ != 0 && !done_; }
  bool done() const { return done_; }

  /// Number of configurations the current step runs (<= ranks).
  std::size_t slots() const { return slot_map_.size(); }

  /// Writes the configurations to run this step into out[0, slots()) by
  /// copy-assignment (`out` must hold at least slots() entries) and
  /// returns slots().  Call once per step, then feed() the observed times
  /// in the same order.
  std::size_t next_assignment(std::span<Point> out) const;

  /// Observed runtimes for the last next_assignment(), same order/length.
  void feed(std::span<const double> times);

  /// Per-point estimates, valid once done().
  const std::vector<double>& estimates() const { return estimates_; }
  /// The batch's points (a view of the recycled storage).
  std::span<const Point> points() const { return {points_.data(), count_}; }

 private:
  void finish_wave();
  void rebuild_slot_map();

  std::vector<Point> points_;  ///< first count_ entries are the batch
  std::size_t count_ = 0;
  std::vector<std::vector<double>> samples_;
  std::vector<double> estimates_;
  std::vector<bool> racing_active_;  ///< still being re-measured (racing)
  Options opts_;
  std::size_t ranks_ = 1;

  std::size_t wave_begin_ = 0;
  std::size_t wave_end_ = 0;
  std::size_t reps_per_point_ = 1;
  int steps_needed_ = 0;
  int steps_done_ = 0;
  std::vector<std::size_t> slot_map_;  ///< assignment slot -> point index
  bool done_ = true;
};

}  // namespace protuner::core
