#include "exp/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "util/env.h"

namespace protuner::exp {

unsigned default_threads() {
  const long env = util::env_long("REPRO_THREADS", 0);
  if (env > 0) return static_cast<unsigned>(env);
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace detail {

std::vector<RepContext> make_contexts(long n, std::uint64_t base_seed) {
  std::vector<RepContext> ctx;
  if (n <= 0) return ctx;
  ctx.resize(static_cast<std::size_t>(n));
  // One walker jumps down the xoshiro orbit; each repetition receives the
  // stream at its jump point (split(k) == k+1 jumps, computed iteratively
  // so building n contexts is O(n) rather than O(n^2) jumps).
  util::Rng walker(base_seed);
  for (long rep = 0; rep < n; ++rep) {
    walker.jump();
    auto& c = ctx[static_cast<std::size_t>(rep)];
    c.rep = rep;
    c.rng = walker;
    c.seed = c.rng();  // first draw; c.rng continues past it
  }
  return ctx;
}

void run_indexed(long n, unsigned threads,
                 const std::function<void(long)>& body) {
  if (n <= 0) return;
  if (threads == 0) threads = default_threads();
  threads = static_cast<unsigned>(
      std::min<long>(n, static_cast<long>(threads)));

  // One exception slot per index: every index runs, then the lowest
  // failure is rethrown, so the error the caller sees does not depend on
  // scheduling.
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  // Each worker claims one index at a time.  An index is a whole
  // repetition (tens of microseconds at least), so the fetch_add is noise
  // and single-index claims keep the tail of the batch shortest.  Results
  // are published by the join, so the counter needs no ordering.
  std::atomic<long> next{0};
  const auto drain = [&] {
    for (long i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        body(i);
      } catch (...) {
        errors[static_cast<std::size_t>(i)] = std::current_exception();
      }
    }
  };
  if (threads <= 1) {
    drain();
  } else {
    std::vector<std::jthread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) workers.emplace_back(drain);
    // ~jthread joins every worker before the error slots are read.
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace detail
}  // namespace protuner::exp
