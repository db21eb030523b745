#include "comm/spmd.h"

#include <algorithm>
#include <cassert>
#include <thread>

namespace protuner::comm {

World::World(std::size_t ranks)
    : ranks_(ranks),
      barrier_(static_cast<std::ptrdiff_t>(ranks)),
      slots_(ranks, 0.0) {
  assert(ranks >= 1);
}

Communicator::Communicator(World& world, std::size_t rank)
    : world_(world), rank_(rank) {
  assert(rank < world.size());
}

std::size_t Communicator::size() const { return world_.size(); }

// Write own slot, barrier (everyone wrote), combine, barrier (safe to
// reuse the slots).
double Communicator::allreduce_max(double v) {
  world_.slots_[rank_] = v;
  world_.sync();
  const double r =
      *std::max_element(world_.slots_.begin(), world_.slots_.end());
  world_.sync();
  return r;
}

void spmd_run(std::size_t ranks,
              const std::function<void(Communicator&)>& fn) {
  World world(ranks);
  std::vector<std::jthread> threads;
  threads.reserve(ranks);
  for (std::size_t r = 0; r < ranks; ++r) {
    threads.emplace_back([&world, &fn, r] {
      Communicator comm(world, r);
      fn(comm);
    });
  }
  // jthread joins on destruction.
}

}  // namespace protuner::comm
