// Generational genetic algorithm — the second randomized comparator the
// paper names as unsuitable for on-line tuning (§2).  Population of `ranks`
// individuals, evaluated one generation per application time step;
// tournament selection (size 2), uniform crossover (probability 0.9),
// per-axis mutation (probability 0.15), and the best individual carried
// over unchanged.
#pragma once

#include "core/parameter_space.h"
#include "core/strategy.h"

namespace protuner::core {

class GeneticStrategy final : public TuningStrategy {
 public:
  GeneticStrategy(ParameterSpace space, std::uint64_t seed);

  void start(std::size_t ranks) override;
  void propose_into(std::vector<Point>& out) override;
  void observe(std::span<const double> times) override;
  const Point& best_point() const override { return best_point_; }
  double best_estimate() const override { return best_value_; }
  bool converged() const override { return false; }
  std::string name() const override { return "GeneticAlgorithm"; }

  std::size_t generations() const { return generations_; }

 private:
  std::size_t select_parent(std::span<const double> fitness);
  /// Mutates the admissible point x in place.  Discrete moves step between
  /// admissible values and continuous moves are clamped, so x stays
  /// admissible with no projection.
  void mutate(Point& x);

  ParameterSpace space_;
  std::uint64_t seed_;

  std::vector<Point> population_;
  // Recycled per-generation storage: the next population (swapped with
  // population_) and the fitness order.
  std::vector<Point> next_;
  std::vector<std::size_t> order_;
  util::Rng rng_{1};
  Point best_point_;
  double best_value_ = 0.0;
  bool have_best_ = false;
  std::size_t generations_ = 0;
};

}  // namespace protuner::core
