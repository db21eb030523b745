// Shared helpers for the figure-reproduction harnesses.
//
// Every harness prints:
//   * a provenance header (what paper artifact it regenerates, seed, reps),
//   * the series as CSV (machine-readable),
//   * an ASCII rendering of the figure's shape,
//   * a PASS/CHECK line for each qualitative claim the paper makes.
// Repetition counts are laptop-scale by default and grow via REPRO_REPS;
// repetitions execute on REPRO_THREADS worker threads (see
// exp/parallel_runner.h — aggregate output is bit-identical for every
// thread count, so raising REPRO_THREADS only changes wall-clock time).
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <string_view>

#include "exp/parallel_runner.h"
#include "util/env.h"

namespace protuner::bench {

inline void header(std::string_view figure, std::string_view claim) {
  std::cout << "==================================================\n"
            << "Reproduces: " << figure << "\n"
            << "Paper claim: " << claim << "\n"
            << "==================================================\n";
}

inline long reps(long fallback) {
  return util::env_long("REPRO_REPS", fallback);
}

inline std::uint64_t seed() {
  return static_cast<std::uint64_t>(util::env_long("REPRO_SEED", 20050712));
}

/// Worker count the repetition runner will use (REPRO_THREADS, default
/// hardware_concurrency) — printed by harnesses for provenance.
inline unsigned threads() { return exp::default_threads(); }

/// Runs `fn(rep)` for rep in [0, reps) on the repetition runner and
/// returns the per-rep results in repetition order.  The harnesses derive
/// their own per-rep seeds from bench::seed() and the rep index (kept
/// identical to the historical serial loops), so `fn` only needs the index;
/// the runner guarantees ordered, thread-count-independent merging.
template <typename Fn>
auto per_rep(long reps, Fn&& fn) {
  return exp::run_repetitions(
      reps, seed(),
      [&fn](const exp::RepContext& ctx) { return fn(ctx.rep); });
}

/// per_rep over a whole sweep: runs `fn(cell, rep)` for every cell in
/// [0, cells) and rep in [0, reps) as one batch and returns result[cell] in
/// repetition order.  One batch pays one tail instead of one per cell.
template <typename Fn>
auto per_cell_rep(long cells, long reps, Fn&& fn) {
  return exp::run_grid(cells, reps, seed(),
                       [&fn](long cell, const exp::RepContext& ctx) {
                         return fn(cell, ctx.rep);
                       });
}

/// Prints a qualitative-shape check result.  These are the paper's claims;
/// the absolute numbers are ours.
inline void check(bool ok, std::string_view what) {
  std::cout << (ok ? "[SHAPE-OK]   " : "[SHAPE-MISS] ") << what << "\n";
}

}  // namespace protuner::bench
