// The on-line tuning contract between an optimizer and the machine it tunes.
//
// Time advances in *application time steps* (§2): in each step every busy
// rank runs one iteration of the application at some configuration, a
// barrier closes the step, and the step costs T_k = max over busy ranks of
// the observed iteration time.  A strategy proposes the per-rank assignment
// for the next step and then receives the observed times.  This
// bulk-synchronous shape is exactly what lets PRO evaluate n candidates per
// step while Nelder-Mead can only use one rank.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/types.h"

namespace protuner::core {

/// One application time step's worth of work: configuration per busy rank.
struct StepProposal {
  /// Configurations to run this step, one per busy rank.  Must be non-empty
  /// and no longer than the rank count passed to start().
  std::vector<Point> configs;
};

/// Interface implemented by every tuning algorithm in this library (PRO,
/// SRO, Nelder-Mead, simulated annealing, ...).
class TuningStrategy {
 public:
  virtual ~TuningStrategy() = default;

  /// Called once before the first proposal with the number of ranks the
  /// machine offers for concurrent evaluation.
  virtual void start(std::size_t ranks) = 0;

  /// Fills `out` with the next application time step's assignment: one
  /// configuration per busy rank, non-empty and no wider than the rank
  /// count passed to start().  The one proposal entry point every strategy
  /// implements and RoundEngine calls once per round.  `out` may arrive
  /// holding a previous round's buffer: implementations must overwrite it
  /// completely (resize + assign), never append, and reuse its capacity so
  /// a warm tuning loop runs allocation-free.
  virtual void propose_into(std::vector<Point>& out) = 0;

  /// Allocating convenience wrapper over propose_into() for tests and
  /// one-off callers.  Virtual only because perfbench/trace.h's
  /// TracedStrategy still overrides it; no strategy does.
  virtual StepProposal propose() {
    StepProposal p;
    propose_into(p.configs);
    return p;
  }

  /// Observed runtime of each config in the last proposal (same order).
  virtual void observe(std::span<const double> times) = 0;

  /// Best configuration discovered so far (by estimated value).
  virtual const Point& best_point() const = 0;

  /// Estimated objective value at best_point().
  virtual double best_estimate() const = 0;

  /// True once the strategy has certified a local minimum (§3.2.2) and will
  /// keep proposing best_point() forever.
  virtual bool converged() const = 0;

  virtual std::string name() const = 0;
};

using TuningStrategyPtr = std::unique_ptr<TuningStrategy>;

}  // namespace protuner::core
