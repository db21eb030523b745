#include "core/genetic.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace protuner::core {

namespace {

constexpr double kMutationRate = 0.15;  ///< per-axis mutation probability
constexpr double kCrossoverRate = 0.9;  ///< chance a child mixes two parents
constexpr std::size_t kTournament = 2;  ///< parent-selection tournament size
constexpr std::size_t kElites = 1;      ///< best individuals kept unchanged

}  // namespace

GeneticStrategy::GeneticStrategy(ParameterSpace space, std::uint64_t seed)
    : space_(std::move(space)), seed_(seed) {}

void GeneticStrategy::start(std::size_t ranks) {
  assert(ranks >= 1);
  rng_.reseed(seed_);
  population_.clear();
  for (std::size_t r = 0; r < ranks; ++r) {
    population_.push_back(space_.random_point(rng_));
  }
  have_best_ = false;
  generations_ = 0;
}

void GeneticStrategy::propose_into(std::vector<Point>& out) {
  // Element-wise copy so the per-individual Point buffers are reused: the
  // population is re-proposed every generation forever.
  out.resize(population_.size());
  for (std::size_t r = 0; r < population_.size(); ++r) {
    out[r] = population_[r];
  }
}

std::size_t GeneticStrategy::select_parent(std::span<const double> fitness) {
  // Tournament selection on runtime (lower is fitter).
  std::size_t winner = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<long>(fitness.size()) - 1));
  for (std::size_t t = 1; t < kTournament; ++t) {
    const auto c = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<long>(fitness.size()) - 1));
    if (fitness[c] < fitness[winner]) winner = c;
  }
  return winner;
}

void GeneticStrategy::mutate(Point& x) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!rng_.bernoulli(kMutationRate)) continue;
    const Parameter& par = space_.param(i);
    if (par.is_discrete_kind()) {
      x[i] = rng_.bernoulli(0.5) ? par.neighbor_above(x[i])
                                 : par.neighbor_below(x[i]);
    } else {
      x[i] = std::clamp(x[i] + rng_.normal(0.0, 0.1 * par.range()),
                        par.lower(), par.upper());
    }
  }
}

void GeneticStrategy::observe(std::span<const double> times) {
  assert(times.size() == population_.size());
  ++generations_;

  for (std::size_t r = 0; r < times.size(); ++r) {
    if (!have_best_ || times[r] < best_value_) {
      best_value_ = times[r];
      best_point_ = population_[r];
      have_best_ = true;
    }
  }

  // Next generation: elites survive, the rest are crossover + mutation.
  const std::size_t n = population_.size();
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0);
  std::sort(order_.begin(), order_.end(),
            [&](std::size_t a, std::size_t b) { return times[a] < times[b]; });

  next_.resize(n);
  const std::size_t elites = std::min(kElites, n);
  for (std::size_t e = 0; e < elites; ++e) {
    next_[e] = population_[order_[e]];
  }
  for (std::size_t k = elites; k < n; ++k) {
    const Point& a = population_[select_parent(times)];
    const Point& b = population_[select_parent(times)];
    Point& child = next_[k];
    child = a;
    if (rng_.bernoulli(kCrossoverRate)) {
      for (std::size_t i = 0; i < child.size(); ++i) {
        if (rng_.bernoulli(0.5)) child[i] = b[i];
      }
    }
    mutate(child);
  }
  population_.swap(next_);
}

}  // namespace protuner::core
