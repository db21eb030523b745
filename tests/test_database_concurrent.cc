// Concurrency hammer for the database's read path: REPRO_THREADS (min 4)
// threads issue overlapping scalar and batch lookups against one shared
// Database, on admissible lattice points (memoised) and off-lattice points
// (always the grid walk), including simultaneous miss-recompute of the same
// point.  Run under -DPROTUNER_SANITIZE=thread this covers the lattice
// memo's relaxed load / racing relaxed store, the one shared write left on
// the otherwise immutable database, and each thread's private walk
// scratch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <thread>
#include <vector>

#include "exp/parallel_runner.h"
#include "gs2/database.h"
#include "gs2/surface.h"
#include "util/rng.h"

namespace protuner::gs2 {
namespace {

unsigned hammer_threads() {
  return std::max(exp::default_threads(), 4u);
}

std::vector<core::Point> off_grid_points(const core::ParameterSpace& space,
                                         std::uint64_t seed, int n) {
  util::Rng rng(seed);
  std::vector<core::Point> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    core::Point x(space.size());
    for (std::size_t d = 0; d < space.size(); ++d) {
      x[d] = rng.uniform(space.param(d).lower(), space.param(d).upper());
    }
    pts.push_back(std::move(x));
  }
  return pts;
}

/// `n` admissible points not stored in `db`: each one's first lookup is a
/// grid-walk miss that fills its memo slot.
std::vector<core::Point> lattice_points(const Database& db,
                                        std::uint64_t seed, int n) {
  util::Rng rng(seed);
  std::vector<core::Point> pts;
  while (pts.size() < static_cast<std::size_t>(n)) {
    core::Point x = db.space().random_point(rng);
    if (!db.exact(x)) pts.push_back(std::move(x));
  }
  return pts;
}

/// Half off-lattice points, half memoised lattice points, interleaved.
std::vector<core::Point> mixed_points(const Database& db, std::uint64_t seed,
                                      int n) {
  const auto off = off_grid_points(db.space(), seed, n / 2);
  const auto on = lattice_points(db, seed + 1, n - n / 2);
  std::vector<core::Point> pts;
  for (std::size_t i = 0; i < on.size(); ++i) {
    if (i < off.size()) pts.push_back(off[i]);
    pts.push_back(on[i]);
  }
  return pts;
}

TEST(DatabaseConcurrent, ParallelLookupsMatchSerialValues) {
  const Gs2Surface surface;
  const auto space = gs2_space();
  const Database db = Database::measure(space, surface, {});

  // Expected values from a private, serially-queried twin.
  const Database serial = Database::measure(space, surface, {});
  const std::vector<core::Point> shared_pts = mixed_points(serial, 1, 128);
  std::vector<double> expected;
  expected.reserve(shared_pts.size());
  for (const auto& x : shared_pts) expected.push_back(serial.clean_time(x));

  const unsigned n_threads = hammer_threads();
  std::atomic<int> mismatches{0};
  std::vector<std::jthread> workers;
  for (unsigned t = 0; t < n_threads; ++t) {
    workers.emplace_back([&, t] {
      // Every thread walks the shared points from a different start (all
      // points contested by all threads) plus a private point set.
      for (int round = 0; round < 20; ++round) {
        for (std::size_t i = 0; i < shared_pts.size(); ++i) {
          const std::size_t j = (i + t * 7 + static_cast<std::size_t>(round)) %
                                shared_pts.size();
          if (db.clean_time(shared_pts[j]) != expected[j]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      const auto mine = mixed_points(db, 100 + t, 32);
      for (const auto& x : mine) {
        if (db.clean_time(x) != db.clean_time(x)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  workers.clear();  // join
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(DatabaseConcurrent, SimultaneousMissRecomputeOfSamePoint) {
  const Gs2Surface surface;
  const auto space = gs2_space();
  const unsigned n_threads = hammer_threads();

  // Fresh database per round so the probed point is a genuine miss for
  // every thread; a barrier lines the threads up on the same point so they
  // race through miss -> interpolate -> memo store together on the lattice
  // points, and through two grid walks on the off-lattice ones.
  const std::vector<core::Point> pts =
      mixed_points(Database::measure(space, surface, {}), 42, 32);
  for (int round = 0; round < 4; ++round) {
    const Database db = Database::measure(space, surface, {});
    std::barrier sync(static_cast<std::ptrdiff_t>(n_threads));
    std::atomic<int> mismatches{0};
    std::vector<std::jthread> workers;
    for (unsigned t = 0; t < n_threads; ++t) {
      workers.emplace_back([&] {
        for (const auto& x : pts) {
          sync.arrive_and_wait();
          const double mine = db.clean_time(x);
          // Interpolation is pure: racing recomputes must agree, and the
          // memoised re-read must return the same bits.
          if (mine != db.clean_time(x) ||
              mine != db.interpolate_uncached(x)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    workers.clear();  // join
    EXPECT_EQ(mismatches.load(), 0) << "round=" << round;
  }
}

TEST(DatabaseConcurrent, ConcurrentBatchAndScalarLookupsAgree) {
  const Gs2Surface surface;
  const auto space = gs2_space();
  const Database db = Database::measure(space, surface, {});
  const Database serial = Database::measure(space, surface, {});

  const std::vector<core::Point> pts = mixed_points(serial, 9, 64);
  std::vector<double> expected;
  expected.reserve(pts.size());
  for (const auto& x : pts) expected.push_back(serial.clean_time(x));

  const unsigned n_threads = hammer_threads();
  std::atomic<int> mismatches{0};
  std::vector<std::jthread> workers;
  for (unsigned t = 0; t < n_threads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<double> out(pts.size());
      for (int round = 0; round < 10; ++round) {
        if ((t + static_cast<unsigned>(round)) % 2 == 0) {
          db.clean_times(pts, out);
        } else {
          for (std::size_t i = 0; i < pts.size(); ++i) {
            out[i] = db.clean_time(pts[i]);
          }
        }
        for (std::size_t i = 0; i < pts.size(); ++i) {
          if (out[i] != expected[i]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  workers.clear();  // join
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace protuner::gs2
