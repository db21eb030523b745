// Tests for the wave/sample evaluation bookkeeping shared by the
// rank-ordering strategies.
#include <gtest/gtest.h>

#include "core/batch_state.h"

namespace protuner::core {
namespace {

// The step's assignment, copied out of the batch.
std::vector<Point> step_assignment(const BatchState& b) {
  std::vector<Point> out(b.slots());
  b.next_assignment(out);
  return out;
}

std::vector<Point> pts(std::initializer_list<double> xs) {
  std::vector<Point> out;
  for (double x : xs) out.push_back(Point{x});
  return out;
}

TEST(BatchState, SingleWaveSingleSample) {
  BatchState b;
  b.reset(pts({1.0, 2.0, 3.0}), /*ranks=*/4, {});
  EXPECT_TRUE(b.active());
  const auto a = step_assignment(b);
  ASSERT_EQ(a.size(), 3u);
  b.feed(std::vector<double>{10.0, 20.0, 30.0});
  EXPECT_TRUE(b.done());
  EXPECT_EQ(b.estimates(), (std::vector<double>{10.0, 20.0, 30.0}));
}

TEST(BatchState, MultipleWavesWhenBatchExceedsRanks) {
  BatchState b;
  b.reset(pts({1.0, 2.0, 3.0, 4.0, 5.0}), /*ranks=*/2, {});
  // Wave 1: points 0,1.
  auto a = step_assignment(b);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0], Point{1.0});
  b.feed(std::vector<double>{11.0, 12.0});
  EXPECT_FALSE(b.done());
  // Wave 2: points 2,3.
  a = step_assignment(b);
  EXPECT_EQ(a[0], Point{3.0});
  b.feed(std::vector<double>{13.0, 14.0});
  // Wave 3: point 4 alone.
  a = step_assignment(b);
  ASSERT_EQ(a.size(), 1u);
  b.feed(std::vector<double>{15.0});
  EXPECT_TRUE(b.done());
  EXPECT_EQ(b.estimates(),
            (std::vector<double>{11.0, 12.0, 13.0, 14.0, 15.0}));
}

TEST(BatchState, SequentialSamplesReducedByMin) {
  BatchState::Options o;
  o.samples = 3;
  o.estimator = EstimatorKind::kMin;
  BatchState b;
  b.reset(pts({1.0, 2.0}), /*ranks=*/2, o);
  b.feed(std::vector<double>{5.0, 9.0});
  EXPECT_FALSE(b.done());
  b.feed(std::vector<double>{4.0, 11.0});
  b.feed(std::vector<double>{6.0, 10.0});
  EXPECT_TRUE(b.done());
  EXPECT_EQ(b.estimates(), (std::vector<double>{4.0, 9.0}));
}

TEST(BatchState, MeanEstimator) {
  BatchState::Options o;
  o.samples = 2;
  o.estimator = EstimatorKind::kMean;
  BatchState b;
  b.reset(pts({1.0}), 1, o);
  b.feed(std::vector<double>{4.0});
  b.feed(std::vector<double>{6.0});
  EXPECT_TRUE(b.done());
  EXPECT_DOUBLE_EQ(b.estimates()[0], 5.0);
}

TEST(BatchState, ParallelReplicasCollectSamplesPerStep) {
  // 2 points on 6 ranks with K=3 and replicas on: 3 replicas per point, so
  // a single step suffices.
  BatchState::Options o;
  o.samples = 3;
  o.parallel_replicas = true;
  BatchState b;
  b.reset(pts({1.0, 2.0}), /*ranks=*/6, o);
  const auto a = step_assignment(b);
  ASSERT_EQ(a.size(), 6u);
  // Layout: rep-major (p0, p1, p0, p1, p0, p1).
  EXPECT_EQ(a[0], Point{1.0});
  EXPECT_EQ(a[1], Point{2.0});
  EXPECT_EQ(a[2], Point{1.0});
  b.feed(std::vector<double>{5.0, 9.0, 4.0, 8.0, 6.0, 7.0});
  EXPECT_TRUE(b.done());
  EXPECT_EQ(b.estimates(), (std::vector<double>{4.0, 7.0}));
}

TEST(BatchState, ReplicasCappedAtSampleCount) {
  // 1 point, 8 ranks, K=2: only 2 replicas used, one step.
  BatchState::Options o;
  o.samples = 2;
  o.parallel_replicas = true;
  BatchState b;
  b.reset(pts({1.0}), 8, o);
  const auto a = step_assignment(b);
  EXPECT_EQ(a.size(), 2u);
  b.feed(std::vector<double>{3.0, 1.0});
  EXPECT_TRUE(b.done());
  EXPECT_DOUBLE_EQ(b.estimates()[0], 1.0);
}

TEST(BatchState, ReplicasPlusSequentialSteps) {
  // 2 points, 4 ranks, K=5, replicas on: 2 replicas/point per step,
  // so ceil(5/2)=3 steps; the trim keeps exactly K=5 samples.
  BatchState::Options o;
  o.samples = 5;
  o.estimator = EstimatorKind::kMean;
  o.parallel_replicas = true;
  BatchState b;
  b.reset(pts({1.0, 2.0}), 4, o);
  int steps = 0;
  while (!b.done()) {
    const auto a = step_assignment(b);
    ASSERT_EQ(a.size(), 4u);
    std::vector<double> times(a.size(), 2.0);
    b.feed(times);
    ++steps;
  }
  EXPECT_EQ(steps, 3);
  EXPECT_DOUBLE_EQ(b.estimates()[0], 2.0);
}

TEST(EstimatorReduce, AllKinds) {
  const std::vector<double> xs{5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(reduce_samples(EstimatorKind::kMin, xs), 1.0);
  EXPECT_DOUBLE_EQ(reduce_samples(EstimatorKind::kMean, xs), 3.0);
  EXPECT_DOUBLE_EQ(reduce_samples(EstimatorKind::kMedian, xs), 3.0);
  EXPECT_DOUBLE_EQ(reduce_samples(EstimatorKind::kFirst, xs), 5.0);
}

TEST(EstimatorReduce, MedianEvenCount) {
  const std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(reduce_samples(EstimatorKind::kMedian, xs), 2.5);
}

TEST(EstimatorReduce, SingleSample) {
  const std::vector<double> xs{7.0};
  for (auto kind : {EstimatorKind::kMin, EstimatorKind::kMean,
                    EstimatorKind::kMedian, EstimatorKind::kFirst}) {
    EXPECT_DOUBLE_EQ(reduce_samples(kind, xs), 7.0);
  }
}

TEST(EstimatorName, Distinct) {
  EXPECT_EQ(estimator_name(EstimatorKind::kMin), "min");
  EXPECT_EQ(estimator_name(EstimatorKind::kMean), "mean");
  EXPECT_EQ(estimator_name(EstimatorKind::kMedian), "median");
  EXPECT_EQ(estimator_name(EstimatorKind::kFirst), "first");
}

}  // namespace
}  // namespace protuner::core
