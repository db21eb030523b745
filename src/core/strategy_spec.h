// Spec-driven construction of tuning strategies (DESIGN.md §13).
//
// Every TuningStrategy in the library registers itself in one factory
// registry keyed by a short name, with its options parsed from the
// declarative spec grammar (spec/spec.h):
//
//   auto s = core::make_strategy("pro:k=4,racing", space, seed);
//   auto t = core::make_strategy("anneal:decay=0.985,migrate=25", space, seed);
//
// `seed` feeds the stochastic strategies (annealing, genetic, random), so
// harnesses sweep repetitions by changing one argument instead of one
// options struct per algorithm.  Only hyperparameters that a harness or
// example varies are keys; the rest are constants in each strategy's
// source.  Unknown names, unknown/out-of-range keys and
// contradictory pairs (e.g. "pro:k=3,max_k=2") fail with spec::SpecError.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/parameter_space.h"
#include "core/strategy.h"
#include "spec/registry.h"

namespace protuner::core {

using StrategyRegistry =
    spec::Registry<TuningStrategyPtr, const ParameterSpace&, std::uint64_t>;

/// The strategy family registry.  Built-ins register at static-init time;
/// callers may add their own entries before first use.
StrategyRegistry& strategy_registry();

/// Parses `text` and constructs the strategy.  Throws spec::SpecError on
/// unknown names, unknown keys or out-of-range values.
TuningStrategyPtr make_strategy(std::string_view text,
                                const ParameterSpace& space,
                                std::uint64_t seed = 1);
TuningStrategyPtr make_strategy(const spec::Spec& s,
                                const ParameterSpace& space,
                                std::uint64_t seed = 1);

}  // namespace protuner::core
