// Batch-vs-scalar stream equivalence for the noise layer.
//
// The contract behind the zero-allocation hot path: for every NoiseModel,
// sample_batch(clean, rngs, out) must be *bit-identical* to the scalar
// per-rank loop `out[i] = sample(clean[i], rngs[i])` — same sample values
// AND the same RNG end state for every stream — across repeated batches.
// That contract is what makes the batched SimulatedCluster reproduce the
// scalar cluster's traces byte for byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/parameter_space.h"
#include "gs2/database.h"
#include "gs2/surface.h"
#include "util/rng.h"
#include "varmodel/ar1_noise.h"
#include "varmodel/burst_noise.h"
#include "varmodel/composite_noise.h"
#include "varmodel/noise_model.h"
#include "varmodel/pareto_noise.h"
#include "varmodel/simple_noise.h"

namespace protuner::varmodel {
namespace {

// Every equivalence check runs at these widths: the degenerate single
// stream, an odd width that defeats accidental unrolling assumptions, and
// a bench-sized batch.
constexpr std::size_t kRankCounts[] = {1, 7, 64};
constexpr int kBatches = 5;  // consecutive rounds (exercises stateful models)

std::vector<double> clean_times(std::size_t ranks) {
  std::vector<double> clean(ranks);
  for (std::size_t i = 0; i < ranks; ++i) {
    clean[i] = 0.5 + 0.37 * static_cast<double>(i % 9);
  }
  return clean;
}

// Runs `model_scalar` through the per-rank scalar loop and `model_batch`
// through sample_batch over kBatches consecutive rounds, demanding
// bit-identical outputs and identical RNG end states after every round.
// Stateful models (Ar1, Burst, Trace cursors) need two separately
// constructed but identically configured instances, hence the pair.
void ExpectStreamEquivalent(const NoiseModel& model_scalar,
                            const NoiseModel& model_batch) {
  for (std::size_t ranks : kRankCounts) {
    std::vector<util::Rng> rngs_scalar = util::Rng(1234).split_streams(ranks);
    std::vector<util::Rng> rngs_batch = util::Rng(1234).split_streams(ranks);
    const std::vector<double> clean = clean_times(ranks);
    std::vector<double> out_scalar(ranks), out_batch(ranks);
    for (int round = 0; round < kBatches; ++round) {
      for (std::size_t i = 0; i < ranks; ++i) {
        out_scalar[i] = model_scalar.sample(clean[i], rngs_scalar[i]);
      }
      model_batch.sample_batch({clean.data(), ranks},
                               {rngs_batch.data(), ranks},
                               {out_batch.data(), ranks});
      for (std::size_t i = 0; i < ranks; ++i) {
        // EXPECT_EQ on doubles: bit-identity is the contract, not
        // closeness.  (All values here are finite and non-NaN.)
        EXPECT_EQ(out_scalar[i], out_batch[i])
            << model_scalar.name() << ": rank " << i << " of " << ranks
            << ", round " << round;
        EXPECT_TRUE(rngs_scalar[i] == rngs_batch[i])
            << model_scalar.name() << ": rng state diverged at rank " << i
            << " of " << ranks << ", round " << round;
      }
    }
  }
}

TEST(NoiseBatch, NoNoise) {
  NoNoise m1, m2;
  ExpectStreamEquivalent(m1, m2);
}

TEST(NoiseBatch, Exponential) {
  ExponentialNoise m1(0.3), m2(0.3);
  ExpectStreamEquivalent(m1, m2);
}

TEST(NoiseBatch, ExponentialZeroRhoDrawsNothing) {
  ExponentialNoise m1(0.0), m2(0.0);
  ExpectStreamEquivalent(m1, m2);  // also checks rngs stay untouched
}

TEST(NoiseBatch, Gaussian) {
  GaussianNoise m1(0.25, 0.5), m2(0.25, 0.5);
  ExpectStreamEquivalent(m1, m2);
}

TEST(NoiseBatch, Pareto) {
  ParetoNoise m1(0.3, 1.7), m2(0.3, 1.7);
  ExpectStreamEquivalent(m1, m2);
}

TEST(NoiseBatch, ParetoZeroRhoDrawsNothing) {
  ParetoNoise m1(0.0, 1.7), m2(0.0, 1.7);
  ExpectStreamEquivalent(m1, m2);
}

TEST(NoiseBatch, Trace) {
  // TraceNoise advances a shared cursor per sample; the batch default must
  // walk it in the same rank order as the scalar loop.
  const std::vector<double> trace{0.0, 0.1, 0.05, 0.3, 0.02};
  TraceNoise m1(trace), m2(trace);
  ExpectStreamEquivalent(m1, m2);
}

TEST(NoiseBatch, Ar1) {
  Ar1Config cfg;
  cfg.rho = 0.2;
  cfg.seed = 77;
  Ar1Noise m1(cfg), m2(cfg);
  ExpectStreamEquivalent(m1, m2);
}

TEST(NoiseBatch, Burst) {
  BurstConfig cfg;
  cfg.rho = 0.25;
  cfg.seed = 78;
  BurstNoise m1(cfg), m2(cfg);
  ExpectStreamEquivalent(m1, m2);
}

TEST(NoiseBatch, CompositeOfBatchedComponents) {
  // Both components override sample_batch: per-stream draw order must stay
  // a-then-b even though the batch path runs a's whole block first.
  CompositeNoise m1(std::make_shared<ExponentialNoise>(0.1),
                    std::make_shared<ParetoNoise>(0.2, 1.7));
  CompositeNoise m2(std::make_shared<ExponentialNoise>(0.1),
                    std::make_shared<ParetoNoise>(0.2, 1.7));
  ExpectStreamEquivalent(m1, m2);
}

TEST(NoiseBatch, CompositeMixedScalarAndBatchedComponents) {
  // One component on the scalar fallback, one batched.
  CompositeNoise m1(std::make_shared<GaussianNoise>(0.15, 0.4),
                    std::make_shared<ParetoNoise>(0.2, 1.7));
  CompositeNoise m2(std::make_shared<GaussianNoise>(0.15, 0.4),
                    std::make_shared<ParetoNoise>(0.2, 1.7));
  ExpectStreamEquivalent(m1, m2);
}

TEST(NoiseBatch, NestedComposite) {
  // Equivalence must compose recursively: (exp + (pareto + gaussian)).
  auto make = [] {
    return CompositeNoise(
        std::make_shared<ExponentialNoise>(0.1),
        std::make_shared<CompositeNoise>(
            std::make_shared<ParetoNoise>(0.15, 1.9),
            std::make_shared<GaussianNoise>(0.05, 0.3)));
  };
  CompositeNoise m1 = make(), m2 = make();
  ExpectStreamEquivalent(m1, m2);
}

TEST(NoiseBatch, CompositeWithSharedCursorTrace) {
  // TraceNoise's cursor is shared across ranks; block-batching the trace
  // component still visits ranks in ascending order, so the cursor walk
  // matches the scalar interleaving.
  const std::vector<double> trace{0.2, 0.0, 0.4};
  auto make = [&trace] {
    return CompositeNoise(std::make_shared<TraceNoise>(trace),
                          std::make_shared<ParetoNoise>(0.2, 1.7));
  };
  CompositeNoise m1 = make(), m2 = make();
  ExpectStreamEquivalent(m1, m2);
}

// The noise and database hot paths must reproduce these golden values bit
// for bit.  They pin the Pareto and Exponential sample_batch transforms
// (std::pow, std::log1p) and the k-NN distance expression to literals, so a
// change in evaluation order shows up here even when every path still agrees
// with every other.
TEST(NoiseBatch, DefaultPathReproducesGoldenValues) {
  std::vector<util::Rng> rngs = util::Rng(42).split_streams(7);
  std::vector<double> clean(7), out(7);
  for (int i = 0; i < 7; ++i) clean[i] = 0.5 + 0.37 * (i % 9);
  const ParetoNoise pareto(0.3, 1.7);
  pareto.sample_batch({clean.data(), 7}, {rngs.data(), 7}, {out.data(), 7});
  const double golden_pareto[7] = {
      0.20075393242002817, 0.33809339844711522, 0.30314860813344785,
      0.81466970856365439, 1.3543098674330833,  0.42093449252586862,
      0.69455676648183851};
  for (int i = 0; i < 7; ++i) EXPECT_EQ(out[i], golden_pareto[i]) << i;
  const ExponentialNoise expo(0.3);
  expo.sample_batch({clean.data(), 7}, {rngs.data(), 7}, {out.data(), 7});
  const double golden_exp[7] = {
      0.097660069129870644, 0.17359023603490623, 0.26449747702189835,
      0.88034193357865254,  0.26866906642551858, 0.94692371419231647,
      0.53605106239270184};
  for (int i = 0; i < 7; ++i) EXPECT_EQ(out[i], golden_exp[i]) << i;

  const gs2::Gs2Surface surface;
  const auto space = gs2::gs2_space();
  const gs2::Database db = gs2::Database::measure(space, surface, {});
  const core::Point q1{16.0, 9.0, 4.0};
  const core::Point q2{33.3, 17.7, 40.1};
  EXPECT_EQ(db.clean_time(q1), 0.3688857509110009);
  EXPECT_EQ(db.clean_time(q2), 0.59795764025428988);
  EXPECT_EQ(db.interpolate_reference(q2), 0.59795764025428988);
}

}  // namespace
}  // namespace protuner::varmodel
