// exp::run_repetitions contract — above all the determinism guarantee the
// bench harnesses rely on: for a fixed base seed, per-rep results and any
// rep-ordered aggregate are identical for every thread count.
#include "exp/parallel_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gs2/database.h"
#include "gs2/surface.h"

namespace protuner::exp {
namespace {

constexpr std::uint64_t kSeed = 20050712;

/// A stand-in for one repetition of a harness: burns a few RNG draws and
/// returns a value that depends on both the stream and the integer seed.
double fake_experiment(const RepContext& ctx) {
  util::Rng rng = ctx.rng;  // copy: contexts are shared const
  double acc = static_cast<double>(ctx.seed % 1000003ULL);
  for (int i = 0; i < 100; ++i) acc += rng.uniform();
  return acc + static_cast<double>(ctx.rep);
}

TEST(ParallelRunner, PerRepResultsIdenticalAcrossThreadCounts) {
  const long n = 64;
  const auto serial = run_repetitions(n, kSeed, fake_experiment, 1);
  ASSERT_EQ(serial.size(), static_cast<std::size_t>(n));
  for (const unsigned threads : {2u, 8u}) {
    const auto parallel = run_repetitions(n, kSeed, fake_experiment, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      // Bit-identical, not approximately equal.
      EXPECT_EQ(serial[i], parallel[i]) << "rep " << i << " with " << threads
                                        << " threads";
    }
  }
}

TEST(ParallelRunner, AggregateSummaryIdenticalAcrossThreadCounts) {
  const long n = 48;
  const auto fold = [&](unsigned threads) {
    const auto vals = run_repetitions(n, kSeed, fake_experiment, threads);
    double acc = 0.0;
    for (const double v : vals) acc += v;  // rep order: same FP rounding
    return acc / static_cast<double>(n);
  };
  const double serial = fold(1);
  EXPECT_EQ(serial, fold(2));
  EXPECT_EQ(serial, fold(8));
}

TEST(ParallelRunner, EndToEndSessionIdenticalAcrossThreadCounts) {
  // The real workload shape: concurrent repetitions hammering one shared
  // Database (sharded interpolation cache) must not perturb results.
  const auto space = gs2::gs2_space();
  const gs2::Gs2Surface surface;
  const gs2::Database db = gs2::Database::measure(space, surface, {});
  const auto probe = [&](const RepContext& ctx) {
    util::Rng rng = ctx.rng;
    double acc = 0.0;
    for (int i = 0; i < 32; ++i) {
      core::Point x(space.size());
      for (std::size_t d = 0; d < space.size(); ++d) {
        x[d] = rng.uniform(space.param(d).lower(), space.param(d).upper());
      }
      acc += db.clean_time(x);  // mostly off-grid: exercises the cache
    }
    return acc;
  };
  const auto serial = run_repetitions(16, kSeed, probe, 1);
  const auto parallel = run_repetitions(16, kSeed, probe, 8);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "rep " << i;
  }
}

TEST(ParallelRunner, ContextsAreDeterministicAndDistinct) {
  const auto a = detail::make_contexts(32, kSeed);
  const auto b = detail::make_contexts(32, kSeed);
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].rep, static_cast<long>(i));
    EXPECT_EQ(a[i].seed, b[i].seed);
    util::Rng ra = a[i].rng, rb = b[i].rng;
    EXPECT_EQ(ra(), rb());
    seeds.insert(a[i].seed);
  }
  EXPECT_EQ(seeds.size(), a.size()) << "per-rep seeds must be distinct";
  // A different base seed gives a different family.
  const auto c = detail::make_contexts(32, kSeed + 1);
  EXPECT_NE(a[0].seed, c[0].seed);
}

TEST(ParallelRunner, ResultsArriveInRepetitionOrder) {
  const auto vals = run_repetitions(
      100, kSeed, [](const RepContext& ctx) { return ctx.rep; }, 8);
  for (long i = 0; i < 100; ++i) {
    EXPECT_EQ(vals[static_cast<std::size_t>(i)], i);
  }
}

TEST(ParallelRunner, RethrowsLowestRepException) {
  const auto run = [&](unsigned threads) -> std::string {
    try {
      run_repetitions(
          16, kSeed,
          [](const RepContext& ctx) -> int {
            if (ctx.rep == 11 || ctx.rep == 3) {
              throw std::runtime_error("rep " + std::to_string(ctx.rep));
            }
            return 0;
          },
          threads);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  // Deterministic error selection regardless of scheduling.
  EXPECT_EQ(run(1), "rep 3");
  EXPECT_EQ(run(4), "rep 3");
}

TEST(ParallelRunner, HandlesZeroAndNegativeCounts) {
  const auto none = run_repetitions(
      0, kSeed, [](const RepContext&) { return 1; }, 4);
  EXPECT_TRUE(none.empty());
  const auto neg = run_repetitions(
      -5, kSeed, [](const RepContext&) { return 1; }, 4);
  EXPECT_TRUE(neg.empty());
}

TEST(ParallelRunner, DefaultThreadsHonoursEnvKnob) {
  ::setenv("REPRO_THREADS", "3", 1);
  EXPECT_EQ(default_threads(), 3u);
  ::setenv("REPRO_THREADS", "0", 1);  // non-positive: fall back to hardware
  EXPECT_GE(default_threads(), 1u);
  ::unsetenv("REPRO_THREADS");
  EXPECT_GE(default_threads(), 1u);
}

TEST(ParallelRunner, SharedDatabaseCacheIsConsistentUnderContention) {
  // Many threads interpolating the same points must agree with the serial
  // answer (pure function + sharded cache ⇒ no torn or stale values).
  const auto space = gs2::gs2_space();
  const gs2::Gs2Surface surface;
  const gs2::Database db = gs2::Database::measure(space, surface, {});
  std::vector<core::Point> pts;
  util::Rng rng(kSeed);
  for (int i = 0; i < 40; ++i) {
    core::Point x(space.size());
    for (std::size_t d = 0; d < space.size(); ++d) {
      x[d] = rng.uniform(space.param(d).lower(), space.param(d).upper());
    }
    pts.push_back(std::move(x));
  }
  std::vector<double> expected;
  const gs2::Database fresh = gs2::Database::measure(space, surface, {});
  for (const auto& p : pts) expected.push_back(fresh.clean_time(p));

  std::atomic<bool> mismatch{false};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&] {
        for (std::size_t i = 0; i < pts.size(); ++i) {
          if (db.clean_time(pts[i]) != expected[i]) mismatch = true;
        }
      });
    }
  }
  EXPECT_FALSE(mismatch.load());
}

TEST(ParallelRunner, EveryIndexRunsExactlyOnce) {
  for (const unsigned threads : {2u, 3u, 8u}) {
    const long t = threads;
    for (const long n : {1L, t - 1, t, 1000L}) {
      std::vector<std::atomic<int>> runs(static_cast<std::size_t>(n));
      detail::run_indexed(n, threads, [&](long i) {
        runs[static_cast<std::size_t>(i)].fetch_add(1);
      });
      for (long i = 0; i < n; ++i) {
        EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1)
            << "index " << i << " of " << n << " on " << threads
            << " threads";
      }
    }
  }
}

/// A per-cell variant of fake_experiment: the cell index changes the value.
double fake_cell_experiment(long cell, const RepContext& ctx) {
  return fake_experiment(ctx) * static_cast<double>(cell + 1) +
         static_cast<double>(cell);
}

TEST(ParallelRunner, GridCellsMatchPerCellRunRepetitions) {
  const long cells = 5, reps = 37;
  for (const unsigned threads : {1u, 2u, 8u}) {
    const auto grid =
        run_grid(cells, reps, kSeed, fake_cell_experiment, threads);
    ASSERT_EQ(grid.size(), static_cast<std::size_t>(cells));
    for (long c = 0; c < cells; ++c) {
      const auto one = run_repetitions(
          reps, kSeed,
          [c](const RepContext& ctx) { return fake_cell_experiment(c, ctx); },
          1);
      const auto& got = grid[static_cast<std::size_t>(c)];
      ASSERT_EQ(got.size(), one.size());
      for (std::size_t r = 0; r < one.size(); ++r) {
        // Bit-identical, not approximately equal.
        EXPECT_EQ(got[r], one[r]) << "cell " << c << " rep " << r << " with "
                                  << threads << " threads";
      }
    }
  }
}

TEST(ParallelRunner, GridRethrowsLowestCellRepAfterEveryIndexRan) {
  const long cells = 4, reps = 8;
  for (const unsigned threads : {1u, 4u}) {
    std::atomic<long> ran{0};
    std::string what;
    try {
      run_grid(
          cells, reps, kSeed,
          [&](long cell, const RepContext& ctx) -> int {
            ran.fetch_add(1);
            if ((cell == 2 && ctx.rep == 1) || (cell == 1 && ctx.rep == 5) ||
                (cell == 3 && ctx.rep == 0)) {
              throw std::runtime_error("cell " + std::to_string(cell) +
                                       " rep " + std::to_string(ctx.rep));
            }
            return 0;
          },
          threads);
    } catch (const std::runtime_error& e) {
      what = e.what();
      EXPECT_EQ(ran.load(), cells * reps) << threads << " threads";
    }
    EXPECT_EQ(what, "cell 1 rep 5") << threads << " threads";
  }
}

TEST(ParallelRunner, GridHandlesZeroCellsAndZeroReps) {
  std::atomic<int> calls{0};
  const auto body = [&](long, const RepContext&) { return ++calls; };
  EXPECT_TRUE(run_grid(0, 5, kSeed, body, 4).empty());
  const auto no_reps = run_grid(3, 0, kSeed, body, 4);
  ASSERT_EQ(no_reps.size(), 3u);
  for (const auto& cell : no_reps) EXPECT_TRUE(cell.empty());
  EXPECT_EQ(calls.load(), 0);
}

}  // namespace
}  // namespace protuner::exp
