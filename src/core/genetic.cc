#include "core/genetic.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "core/projection.h"

namespace protuner::core {

GeneticStrategy::GeneticStrategy(ParameterSpace space, GeneticOptions opts)
    : space_(std::move(space)), opts_(opts) {
  assert(opts.mutation_rate >= 0.0 && opts.mutation_rate <= 1.0);
  assert(opts.tournament >= 1);
}

void GeneticStrategy::start(std::size_t ranks) {
  assert(ranks >= 1);
  rng_.reseed(opts_.seed);
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
  for (std::size_t t = 1; t < opts_.tournament; ++t) {
    const auto c = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<long>(fitness.size()) - 1));
    if (fitness[c] < fitness[winner]) winner = c;
  }
  return winner;
}

Point GeneticStrategy::mutate(Point x) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!rng_.bernoulli(opts_.mutation_rate)) continue;
    const Parameter& par = space_.param(i);
    if (par.is_discrete_kind()) {
      x[i] = rng_.bernoulli(0.5) ? par.neighbor_above(x[i])
                                 : par.neighbor_below(x[i]);
    } else {
      x[i] += rng_.normal(0.0, 0.1 * par.range());
    }
  }
  return project(space_, x, x);
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
  std::vector<std::size_t> order(population_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return times[a] < times[b]; });

  std::vector<Point> next;
  next.reserve(population_.size());
  for (std::size_t e = 0; e < std::min(opts_.elites, population_.size());
       ++e) {
    next.push_back(population_[order[e]]);
  }
  while (next.size() < population_.size()) {
    const Point& a = population_[select_parent(times)];
    const Point& b = population_[select_parent(times)];
    Point child = a;
    if (rng_.bernoulli(opts_.crossover_rate)) {
      for (std::size_t i = 0; i < child.size(); ++i) {
        if (rng_.bernoulli(0.5)) child[i] = b[i];
      }
    }
    next.push_back(mutate(std::move(child)));
  }
  population_ = std::move(next);
}

}  // namespace protuner::core
