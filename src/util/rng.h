// Deterministic random-number generation for reproducible experiments.
//
// Every randomized component in this library takes an explicit seed (or an
// Rng&) so that benches and tests are exactly reproducible.  The generator is
// xoshiro256++, seeded through SplitMix64 as its authors recommend, with
// jump() support so independent parallel streams can be split from one seed
// without statistical overlap.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace protuner::util {

/// SplitMix64: tiny generator used to expand a 64-bit seed into the 256-bit
/// xoshiro state.  Also usable standalone for cheap hashing of seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ — fast, high-quality 64-bit generator.
/// Satisfies std::uniform_random_bit_generator, so it can drive the
/// <random> distributions as well as the protuner::stats distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the 256-bit state from a 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).  Uses the top 53 bits.
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] inclusive.  Uses Lemire-style rejection to
  /// avoid modulo bias.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Marsaglia polar method (no cached spare: branchless
  /// reproducibility across call sites matters more than the 2x speedup).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Standard exponential (rate 1).
  double exponential();

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Jump ahead 2^128 steps: produces a generator whose future output stream
  /// is disjoint from this one for any realistic run length.  Used to derive
  /// independent per-rank / per-repetition streams from one seed.
  void jump();

  /// Convenience: returns a copy that has been jumped `n + 1` times past this
  /// generator, leaving *this untouched.  Costs n + 1 jumps: when deriving
  /// many consecutive streams, prefer split_streams(), which is linear in
  /// the stream count instead of quadratic.
  Rng split(std::uint64_t n = 0) const;

  /// `count` independent streams derived from this generator:
  /// out[i] == split(i) for every i, built with one jump per stream.
  /// *this is untouched.
  std::vector<Rng> split_streams(std::size_t count) const;

  /// Exact state comparison — two equal generators produce identical
  /// future streams.  Used by the batch-vs-scalar equivalence tests to
  /// assert that a batched path consumed exactly the same variates.
  friend bool operator==(const Rng&, const Rng&) = default;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace protuner::util
