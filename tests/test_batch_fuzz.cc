// Randomized property tests for BatchState: for arbitrary combinations of
// batch size, rank count, sample count and replica mode, the bookkeeping
// must deliver exactly K samples per point (trimmed), consume consistent
// assignments, and terminate.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/batch_state.h"
#include "util/rng.h"

namespace protuner::core {
namespace {

// The step's assignment, copied out of the batch.
std::vector<Point> step_assignment(const BatchState& b) {
  std::vector<Point> out(b.slots());
  b.next_assignment(out);
  return out;
}

TEST(BatchFuzz, RandomConfigurationsAllTerminateWithExactEstimates) {
  util::Rng rng(20250707);
  for (int trial = 0; trial < 300; ++trial) {
    const auto n_points =
        static_cast<std::size_t>(rng.uniform_int(1, 12));
    const auto ranks = static_cast<std::size_t>(rng.uniform_int(1, 10));
    const int samples = static_cast<int>(rng.uniform_int(1, 6));
    const bool replicas = rng.bernoulli(0.5);

    std::vector<Point> pts;
    for (std::size_t i = 0; i < n_points; ++i) {
      pts.push_back(Point{static_cast<double>(i)});
    }

    BatchState::Options opts;
    opts.samples = samples;
    opts.estimator = EstimatorKind::kMin;
    opts.parallel_replicas = replicas;

    BatchState b;
    b.reset(pts, ranks, opts);

    // Feed deterministic times: time(point i, occurrence c) = 100*i + c.
    // The min over occurrences is then exactly 100*i.
    std::map<double, int> occurrence;
    int steps = 0;
    while (!b.done()) {
      const auto assignment = step_assignment(b);
      ASSERT_FALSE(assignment.empty());
      ASSERT_LE(assignment.size(),
                ranks * (replicas ? 1u : 1u) * 1u + ranks * 5u);
      std::vector<double> times;
      times.reserve(assignment.size());
      for (const auto& p : assignment) {
        const int c = occurrence[p[0]]++;
        times.push_back(100.0 * p[0] + static_cast<double>(c));
      }
      b.feed(times);
      ++steps;
      ASSERT_LT(steps, 500) << "no termination: trial " << trial;
    }

    const auto& est = b.estimates();
    ASSERT_EQ(est.size(), n_points);
    for (std::size_t i = 0; i < n_points; ++i) {
      // Min over occurrences 0..(>=samples-1) is occurrence 0.
      EXPECT_DOUBLE_EQ(est[i], 100.0 * static_cast<double>(i))
          << "trial " << trial;
      // Every point was evaluated at least `samples` times.
      EXPECT_GE(occurrence[static_cast<double>(i)], samples)
          << "trial " << trial;
    }

    // Step-count sanity: without replicas each wave of w points takes
    // exactly `samples` steps and waves partition the batch.
    if (!replicas) {
      const auto waves = (n_points + ranks - 1) / ranks;
      EXPECT_EQ(static_cast<std::size_t>(steps),
                waves * static_cast<std::size_t>(samples))
          << "trial " << trial;
    }
  }
}

TEST(BatchFuzz, MeanEstimatorUsesExactlyKSamples) {
  // With the mean estimator, trimming to exactly K samples is observable:
  // occurrences beyond K must not affect the estimate.
  util::Rng rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    const auto n_points = static_cast<std::size_t>(rng.uniform_int(1, 6));
    const auto ranks = static_cast<std::size_t>(rng.uniform_int(2, 12));
    const int samples = static_cast<int>(rng.uniform_int(1, 4));

    std::vector<Point> pts;
    for (std::size_t i = 0; i < n_points; ++i) {
      pts.push_back(Point{static_cast<double>(i)});
    }
    BatchState::Options opts;
    opts.samples = samples;
    opts.estimator = EstimatorKind::kMean;
    opts.parallel_replicas = true;  // replication can oversample
    BatchState b;
    b.reset(pts, ranks, opts);

    std::map<double, int> occurrence;
    while (!b.done()) {
      const auto assignment = step_assignment(b);
      std::vector<double> times;
      for (const auto& p : assignment) {
        const int c = occurrence[p[0]]++;
        // Occurrences 0..K-1 get value 10; later ones get a poison value
        // that would shift the mean if (incorrectly) included.
        times.push_back(c < samples ? 10.0 : 1e6);
      }
      b.feed(times);
    }
    for (double e : b.estimates()) {
      EXPECT_DOUBLE_EQ(e, 10.0) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace protuner::core
