// In-process SPMD substrate: a miniature MPI-like layer over std::jthread +
// std::barrier so the tuning harness can be driven by *real* concurrent
// ranks (the live examples and the harmony integration tests), not only by
// the discrete-event cluster simulator.
//
// Model: spmd_run(P, fn) launches P ranks; each receives a Communicator
// with rank/size and one collective, allreduce_max.  A collective must be
// called by every rank in the same order (as in MPI).
#pragma once

#include <barrier>
#include <cstddef>
#include <functional>
#include <vector>

namespace protuner::comm {

class World;

/// Per-rank handle to the collectives.  Valid only inside spmd_run.
class Communicator {
 public:
  Communicator(World& world, std::size_t rank);

  std::size_t rank() const { return rank_; }
  std::size_t size() const;

  /// Collective reduction: every rank returns the maximum of all ranks' v.
  double allreduce_max(double v);

 private:
  World& world_;
  std::size_t rank_;
};

/// Shared state for one SPMD execution.  Construct with the rank count and
/// run ranks against it, or use the spmd_run convenience wrapper.
class World {
 public:
  explicit World(std::size_t ranks);

  std::size_t size() const { return ranks_; }

 private:
  friend class Communicator;

  std::size_t ranks_;
  std::barrier<> barrier_;
  std::vector<double> slots_;

  void sync() { barrier_.arrive_and_wait(); }
};

/// Runs fn on P concurrent ranks (std::jthread each) and joins them all.
/// Exceptions thrown by a rank terminate the process (by design: a failed
/// rank in SPMD has no meaningful recovery here).
void spmd_run(std::size_t ranks,
              const std::function<void(Communicator&)>& fn);

}  // namespace protuner::comm
