// Built-in strategy registrations.  Each entry names the keys it accepts
// and the option-struct fields they map to; the example spec exercises
// every key so the contract tests can round-trip and construct it.  A
// strategy's other hyperparameters are constants in its own source file.
#include "core/strategy_spec.h"

#include <algorithm>
#include <memory>
#include <string>

#include "core/annealing.h"
#include "core/compass.h"
#include "core/estimator.h"
#include "core/fixed.h"
#include "core/genetic.h"
#include "core/nelder_mead.h"
#include "core/pro.h"
#include "core/random_search.h"
#include "core/sro.h"

namespace protuner::core {

namespace {

EstimatorKind parse_estimator(spec::Options& o) {
  const std::string est =
      o.get_choice("est", "min", {"min", "mean", "median", "first"});
  if (est == "mean") return EstimatorKind::kMean;
  if (est == "median") return EstimatorKind::kMedian;
  if (est == "first") return EstimatorKind::kFirst;
  return EstimatorKind::kMin;
}

using Reg = spec::Registrar<StrategyRegistry>;

StrategyRegistry& mutable_registry() {
  static StrategyRegistry registry("strategy");
  return registry;
}

const Reg reg_pro{
    mutable_registry(),
    "pro",
    {},
    "Parallel Rank Ordering (paper Algorithm 2)",
    "pro:size=0.2,2n=1,k=3,est=min,check=1,replicas=0,racing=0,keep=0,"
    "adaptive=0,max_k=8,refresh=1",
    [](spec::Options& o, const ParameterSpace& space,
       std::uint64_t) -> TuningStrategyPtr {
      ProOptions opts;
      opts.initial_size = o.get_double("size", opts.initial_size, 1e-6, 10.0);
      opts.use_2n_simplex = o.get_bool("2n", opts.use_2n_simplex);
      opts.samples = static_cast<int>(o.get_int("k", opts.samples, 1, 1024));
      opts.estimator = parse_estimator(o);
      opts.expansion_check = o.get_bool("check", opts.expansion_check);
      opts.parallel_replicas = o.get_bool("replicas", opts.parallel_replicas);
      opts.racing = o.get_bool("racing", opts.racing);
      opts.keep_incumbent_after_probe =
          o.get_bool("keep", opts.keep_incumbent_after_probe);
      opts.adaptive_samples = o.get_bool("adaptive", opts.adaptive_samples);
      opts.max_samples = static_cast<int>(
          o.get_int("max_k", std::max(opts.max_samples, opts.samples), 1,
                    1024));
      opts.refresh_best = o.get_bool("refresh", opts.refresh_best);
      const auto reject = [](const std::string& why) {
        throw spec::SpecError("strategy 'pro': " + why);
      };
      if (opts.max_samples < opts.samples) {
        reject("max_k=" + std::to_string(opts.max_samples) +
               " is below k=" + std::to_string(opts.samples));
      }
      if (opts.adaptive_samples && !opts.refresh_best) {
        reject("adaptive=1 needs refresh=1 (it samples the refreshed "
               "incumbent)");
      }
      if (opts.racing && opts.estimator != EstimatorKind::kMin) {
        reject("racing=1 needs est=min (it races running minima), not est=" +
               estimator_name(opts.estimator));
      }
      return std::make_unique<ProStrategy>(space, opts);
    }};

const Reg reg_sro{
    mutable_registry(),
    "sro",
    {},
    "Sequential Rank Ordering (paper Algorithm 1)",
    "sro:k=2",
    [](spec::Options& o, const ParameterSpace& space,
       std::uint64_t) -> TuningStrategyPtr {
      return std::make_unique<SroStrategy>(
          space, static_cast<int>(o.get_int("k", 1, 1, 1024)));
    }};

const Reg reg_nm{
    mutable_registry(),
    "nm",
    {"nelder-mead", "neldermead"},
    "Nelder-Mead simplex (the original Active Harmony optimizer)",
    "nm:k=1,iters=200",
    [](spec::Options& o, const ParameterSpace& space,
       std::uint64_t) -> TuningStrategyPtr {
      NelderMeadOptions opts;
      opts.samples = static_cast<int>(o.get_int("k", opts.samples, 1, 1024));
      opts.max_iterations = static_cast<std::size_t>(
          o.get_int("iters", static_cast<long>(opts.max_iterations), 0,
                    1000000));
      return std::make_unique<NelderMeadStrategy>(space, opts);
    }};

const Reg reg_anneal{
    mutable_registry(),
    "anneal",
    {"annealing", "sa"},
    "parallel simulated annealing (one Metropolis chain per rank)",
    "anneal:decay=0.995,migrate=0",
    [](spec::Options& o, const ParameterSpace& space,
       std::uint64_t seed) -> TuningStrategyPtr {
      AnnealingOptions opts;
      opts.step_decay = o.get_double("decay", opts.step_decay, 1e-9, 1.0);
      opts.migrate_every = static_cast<std::size_t>(
          o.get_int("migrate", static_cast<long>(opts.migrate_every), 0,
                    1000000));
      opts.seed = seed;
      return std::make_unique<AnnealingStrategy>(space, opts);
    }};

const Reg reg_genetic{
    mutable_registry(),
    "genetic",
    {"ga"},
    "generational genetic algorithm (tournament + uniform crossover)",
    "genetic",
    [](spec::Options&, const ParameterSpace& space,
       std::uint64_t seed) -> TuningStrategyPtr {
      return std::make_unique<GeneticStrategy>(space, seed);
    }};

const Reg reg_random{
    mutable_registry(),
    "random",
    {},
    "uniform random search, keeps the best ever seen",
    "random",
    [](spec::Options&, const ParameterSpace& space,
       std::uint64_t seed) -> TuningStrategyPtr {
      return std::make_unique<RandomSearchStrategy>(space, seed);
    }};

const Reg reg_compass{
    mutable_registry(),
    "compass",
    {},
    "parallel compass (coordinate) search over the 2N axial neighbours",
    "compass:k=1",
    [](spec::Options& o, const ParameterSpace& space,
       std::uint64_t) -> TuningStrategyPtr {
      return std::make_unique<CompassStrategy>(
          space, static_cast<int>(o.get_int("k", 1, 1, 1024)));
    }};

const Reg reg_fixed{
    mutable_registry(),
    "fixed",
    {"none"},
    "no tuning: pin every rank to the centre of the space",
    "fixed",
    [](spec::Options&, const ParameterSpace& space,
       std::uint64_t) -> TuningStrategyPtr {
      return std::make_unique<FixedStrategy>(space.center());
    }};

}  // namespace

StrategyRegistry& strategy_registry() { return mutable_registry(); }

TuningStrategyPtr make_strategy(std::string_view text,
                                const ParameterSpace& space,
                                std::uint64_t seed) {
  return strategy_registry().make(spec::parse(text), space, seed);
}

TuningStrategyPtr make_strategy(const spec::Spec& s,
                                const ParameterSpace& space,
                                std::uint64_t seed) {
  return strategy_registry().make(s, space, seed);
}

}  // namespace protuner::core
