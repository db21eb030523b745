// Parallel experiment execution: run the repetitions of a figure/ablation
// harness across worker threads with results that are bit-identical to the
// serial run.
//
// The repetitions of every harness in bench/ are independent simulations
// distinguished only by their RNG seed — exactly the "replications are
// embarrassingly parallel" structure that parallel ranking-and-selection
// systems exploit.  run_repetitions() gives each repetition
//   * its index `rep`,
//   * an independent RNG stream split from one base seed via
//     util::Rng::jump (disjoint subsequences of the xoshiro orbit), and
//   * a 64-bit `seed` (the first draw of that stream) for components that
//     take an integer seed,
// executes them fork-join on REPRO_THREADS workers (default:
// hardware_concurrency) that claim indices from one atomic counter, and
// returns the per-rep results **in repetition order**.  run_grid() does the
// same for a whole sweep: cells × reps run as one index space, so a sweep
// pays one batch tail instead of one per cell.  Because the per-rep inputs
// are precomputed serially and the merge is ordered, any aggregate the
// caller folds over the returned vector is bit-identical for every thread
// count — including the serial REPRO_THREADS=1 run.
//
// Requirements on `fn`: it must not touch mutable state shared across
// repetitions except through thread-safe components (gs2::Database's
// interpolation cache is; the stateless noise models are).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace protuner::exp {

/// Worker count used when the caller passes `threads == 0`: the
/// REPRO_THREADS environment variable when set to a positive integer, else
/// std::thread::hardware_concurrency (never less than 1).
unsigned default_threads();

/// Everything one repetition may depend on.  Deterministic function of
/// (base_seed, rep) only — never of thread scheduling.
struct RepContext {
  long rep = 0;            ///< repetition index, 0-based
  std::uint64_t seed = 0;  ///< per-rep integer seed (first draw of `rng`)
  util::Rng rng;           ///< independent stream, split from the base seed
};

namespace detail {
/// Executes body(i) for i in [0, n) on `threads` workers (resolved via
/// default_threads() when 0; serial in-place when the resolved count is 1
/// or n < 2).  Every index runs exactly once, even when some throw; then
/// the lowest-index exception, if any, is rethrown.
void run_indexed(long n, unsigned threads,
                 const std::function<void(long)>& body);

/// The per-rep contexts for `n` repetitions of `base_seed`, in rep order.
std::vector<RepContext> make_contexts(long n, std::uint64_t base_seed);
}  // namespace detail

/// Runs `fn(cell, ctx)` for every cell in [0, cells) and every repetition
/// context of make_contexts(reps, base_seed) — each cell sees the same
/// contexts — as one batch of cells × reps indices.  Returns result[cell]
/// in repetition order.  `threads == 0` resolves via default_threads().  If
/// any call throws, the exception of the lowest failing (cell, rep) is
/// rethrown after all calls finish.
template <typename Fn>
auto run_grid(long cells, long reps, std::uint64_t base_seed, Fn&& fn,
              unsigned threads = 0)
    -> std::vector<
        std::vector<std::invoke_result_t<Fn&, long, const RepContext&>>> {
  using R = std::invoke_result_t<Fn&, long, const RepContext&>;
  static_assert(!std::is_void_v<R>,
                "run_grid requires fn to return the per-rep result");
  cells = std::max(cells, 0L);
  reps = std::max(reps, 0L);
  const std::vector<RepContext> ctx = detail::make_contexts(reps, base_seed);
  std::vector<std::vector<R>> out(
      static_cast<std::size_t>(cells),
      std::vector<R>(static_cast<std::size_t>(reps)));
  detail::run_indexed(cells * reps, threads, [&](long i) {
    const auto cell = static_cast<std::size_t>(i / reps);
    const auto rep = static_cast<std::size_t>(i % reps);
    out[cell][rep] = fn(static_cast<long>(cell), ctx[rep]);
  });
  return out;
}

/// Runs `fn(ctx)` for each of `n` repetitions and returns the results in
/// repetition order: the one-cell run_grid.
template <typename Fn>
auto run_repetitions(long n, std::uint64_t base_seed, Fn&& fn,
                     unsigned threads = 0)
    -> std::vector<std::invoke_result_t<Fn&, const RepContext&>> {
  auto grid = run_grid(
      1, n, base_seed,
      [&fn](long, const RepContext& ctx) { return fn(ctx); }, threads);
  return std::move(grid.front());
}

}  // namespace protuner::exp
