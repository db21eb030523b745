// SPSA — Simultaneous Perturbation Stochastic Approximation (Spall 1992),
// the de-facto production tuner for chess engines and other systems with
// noisy objectives (cf. Obsidian's paramsToSpsaInput, SNIPPETS.md #2).
//
// Each optimizer iteration needs exactly TWO evaluations regardless of the
// dimension N: both probes perturb *every* axis at once by a Rademacher
// sign vector Δ, and (y+ - y-) / (2 c_k Δ_i) is an unbiased estimate of
// every partial derivative simultaneously.  That makes SPSA the natural
// antithesis of PRO in the shootout: PRO spends n parallel ranks per step
// to rank-order candidates; SPSA spends 2 ranks per step no matter how
// wide the machine is (plus one measurement of the iterate Π(θ) itself
// when a third rank is free, so the incumbent can settle on the anchor).
//
// The iterate θ lives in range-normalised coordinates z ∈ [0,1]^N; probes
// are projected onto the admissible region with the paper's Π operator, so
// every proposal is admissible even on integer/discrete axes (the classic
// discrete-SPSA treatment).  Gains follow the standard schedules
//   a_k = a / (A + k)^alpha,   c_k = c / k^gamma
// with a = 0.2 (normalised-coordinate units), c = 0.1 (a fraction of each
// range), A = 10 and Spall's recommended exponents alpha = 0.602 and
// gamma = 0.101.  SPSA has no convergence certificate: it iterates for as
// long as the session runs.
#pragma once

#include "core/parameter_space.h"
#include "core/strategy.h"
#include "util/rng.h"

namespace protuner::core {

class SpsaStrategy final : public TuningStrategy {
 public:
  SpsaStrategy(ParameterSpace space, std::uint64_t seed);

  void start(std::size_t ranks) override;
  void propose_into(std::vector<Point>& out) override;
  void observe(std::span<const double> times) override;
  const Point& best_point() const override { return best_point_; }
  double best_estimate() const override { return best_value_; }
  bool converged() const override { return false; }
  std::string name() const override { return "SPSA"; }

  std::size_t iterations() const { return iterations_; }

 private:
  /// Builds the two probes for iteration k into plus_/minus_.
  void prepare_probes();
  /// Maps normalised z into an admissible point via Π anchored at the
  /// incumbent projection, written into `out` (not anchor_).
  void project_z(const std::vector<double>& z, Point& out) const;
  void track_best(const Point& p, double y);

  ParameterSpace space_;
  std::uint64_t seed_;
  util::Rng rng_;
  std::size_t ranks_ = 1;

  std::vector<double> z_;      ///< iterate, normalised to [0,1] per axis
  std::vector<double> delta_;  ///< current Rademacher direction
  std::vector<double> zp_;     ///< normalised probe z + c_k Δ (recycled)
  std::vector<double> zm_;     ///< normalised probe z − c_k Δ (recycled)
  Point plus_, minus_;         ///< admissible probe points
  Point anchor_;               ///< Π(θ): admissible image of the iterate
  double ck_ = 0.0;            ///< current perturbation size
  bool have_pair_ = false;     ///< both probes measured this iteration
  double y_plus_ = 0.0;
  /// Objective scale for gradient normalisation (first pair's magnitude),
  /// so the default gains work for seconds-scale and microsecond-scale
  /// objectives alike.
  double y_scale_ = 0.0;

  Point best_point_;
  double best_value_ = 0.0;
  bool have_best_ = false;
  std::size_t iterations_ = 0;
  /// With ranks == 1 the pair is split across two rounds; this marks which
  /// probe the last proposal carried.
  bool awaiting_minus_ = false;
};

}  // namespace protuner::core
