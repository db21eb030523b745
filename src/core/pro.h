// PRO — Parallel Rank Ordering (paper Algorithm 2), the primary
// contribution of the paper, plus the multi-sample modification of §5.2.
//
// Per optimizer iteration (at most 3 evaluation rounds when ranks >= n):
//   1. Reflection round: evaluate all n reflections r^j = Pi(2 v^0 - v^j)
//      concurrently; let l = argmin_j f(r^j).
//   2. If f(r^l) < f(v^0): expansion *check* — evaluate the single most
//      promising expansion e = Pi(3 v^0 - 2 v^l) first (committing all n
//      expansions blindly can drag in points with terrible performance and
//      each step costs the max over the batch).
//   3. If the check succeeds, evaluate all n expansions and accept them;
//      otherwise accept the reflections.  If no reflection beat v^0,
//      shrink: v^j <- Pi((v^0 + v^j)/2).
//
// When the simplex collapses onto one configuration, the §3.2.2 stopping
// probe evaluates the 2N axial neighbours of v^0: if none wins, v^0 is a
// certified local minimum and the strategy freezes on it; otherwise the
// probe points seed a fresh simplex and the search continues.
#pragma once

#include <optional>

#include "core/batch_state.h"
#include "core/parameter_space.h"
#include "core/simplex.h"
#include "core/strategy.h"

namespace protuner::core {

struct ProOptions {
  /// Initial simplex relative size r (§3.2.3); axial offset is r*range/2.
  double initial_size = 0.2;
  /// 2N-vertex axial simplex (paper's recommendation) vs minimal N+1.
  bool use_2n_simplex = true;
  /// K: observations per configuration per evaluation round (§5.2).
  int samples = 1;
  /// How K samples collapse to one estimate; the paper argues for kMin.
  EstimatorKind estimator = EstimatorKind::kMin;
  /// Check the most promising expansion point before committing all n
  /// (Algorithm 2 lines 8-9).  Disabling reproduces the naive variant the
  /// paper rejected (ablation).
  bool expansion_check = true;
  /// Spend spare ranks on replicated samples (§5.2's "no additional cost"
  /// observation).  Off by default: the paper's Fig. 10 experiments take
  /// samples in subsequent time steps as a worst case.
  bool parallel_replicas = false;
  /// Racing elimination during multi-sampling (extension): candidates whose
  /// running minimum is already 10% above the round leader's stop being
  /// re-measured, which lowers T_k (the step cost is the max over the
  /// batch, and clear losers are exactly the expensive entries).  Needs the
  /// kMin estimator (the spec factory rejects racing with any other) and
  /// has an effect only with K > 1.
  bool racing = false;
  /// After a successful §3.2.2 probe, continue with the 2N generated points
  /// *only*, as the paper specifies ("continue PRO with the generated
  /// simplex") — the incumbent configuration is not carried over, so under
  /// noise a spuriously-escaping probe can lose the best point found.  Set
  /// to true to keep the incumbent in the new simplex (a conservative
  /// variant; ablation).
  bool keep_incumbent_after_probe = false;
  /// Adaptive K (the paper's stated future work, §5.2: "we are working on
  /// optimization algorithms that update K adaptively").  When enabled the
  /// strategy estimates, from the incumbent's repeated observations, the
  /// per-sample probability q of landing within 5% of the observed noise
  /// floor, then sets K so that the min-of-K misses the floor with
  /// probability below 10% (Eq. 11/22: (1-q)^K <= 0.1).  Noise-free
  /// machines thus get K = 1 automatically; heavy variability grows K up to
  /// `max_samples`.  Requires refresh_best.
  bool adaptive_samples = false;
  int max_samples = 8;
  /// Re-measure the incumbent v^0 alongside every candidate batch and use
  /// the fresh estimate in all comparisons.  This is what a real on-line
  /// SPMD deployment does — every processor runs *something* each time
  /// step, so the incumbent is continuously re-observed; with K = 1 and
  /// heavy-tailed noise the incumbent's estimate is then a single noisy
  /// draw, which is exactly the fragility the multi-sample modification
  /// repairs.  Disable for the stale-incumbent ablation.
  bool refresh_best = true;
};

class ProStrategy final : public TuningStrategy {
 public:
  ProStrategy(ParameterSpace space, ProOptions opts);

  /// Overrides the initial simplex (otherwise built from the options).
  void set_initial_simplex(Simplex s) { initial_override_ = std::move(s); }

  void start(std::size_t ranks) override;
  void propose_into(std::vector<Point>& out) override;
  void observe(std::span<const double> times) override;
  const Point& best_point() const override;
  double best_estimate() const override;
  bool converged() const override { return converged_; }
  std::string name() const override;

  /// Optimizer iterations completed (reflection rounds resolved).
  std::size_t iterations() const { return iterations_; }
  /// Current K (fixed unless adaptive_samples is on).
  int current_samples() const { return opts_.samples; }
  /// Breakdown of accepted moves, for the ablation benches.
  std::size_t expansions_accepted() const { return expansions_accepted_; }
  std::size_t reflections_accepted() const { return reflections_accepted_; }
  std::size_t shrinks_accepted() const { return shrinks_accepted_; }
  std::size_t probes_run() const { return probes_run_; }
  const Simplex& simplex() const { return simplex_; }

 private:
  enum class Phase {
    kInitEval,
    kReflect,
    kExpandCheck,
    kExpandAll,
    kExpandAllDirect,  ///< ablation: no single-point check first
    kShrink,
    kProbe,
    kDone,
  };

  /// Stages a batch of `candidates` points in the batch's recycled storage
  /// (plus the v^0 refresh slot when requested) and returns the candidate
  /// slots for the caller to overwrite before begin_batch().
  std::span<Point> stage_batch(std::size_t candidates, bool with_refresh);
  void begin_batch();
  /// Stages and begins the n reflections of the current simplex.
  void begin_reflections();
  void on_batch_done();
  /// Splits off the trailing v^0 refresh estimate (when present), updates
  /// the stored incumbent value, and returns the candidate estimates (a
  /// view of the batch's, valid until the next stage_batch()).
  std::span<const double> split_refresh();
  void adopt_new_vertices(std::span<const Point> pts,
                          std::span<const double> vals);
  void after_accept();
  /// Feeds one fresh incumbent observation into the adaptive-K estimator
  /// and recomputes K (Eq. 11/22 heuristic).
  void update_adaptive_k(double fresh_observation);

  ParameterSpace space_;
  ProOptions opts_;
  std::size_t ranks_ = 1;

  Simplex simplex_;
  std::optional<Simplex> initial_override_;
  Phase phase_ = Phase::kInitEval;
  BatchState batch_;
  bool batch_has_refresh_ = false;
  std::size_t active_slots_ = 0;  ///< leading proposal slots fed to batch_

  // Pending-decision context: the reflections and their estimates, copied
  // out of the batch before the expansion batch reuses its storage.
  std::vector<Point> reflect_points_;
  std::vector<double> reflect_values_;
  std::size_t best_reflect_ = 0;       ///< l = argmin_j f(r^j)

  // Adaptive-K state: raw observations of the current incumbent plus an
  // EWMA of the per-sample floor-hit probability across past incumbents.
  std::vector<double> incumbent_window_;
  Point incumbent_tracked_;
  double q_ewma_ = -1.0;

  bool converged_ = false;
  std::size_t iterations_ = 0;
  std::size_t expansions_accepted_ = 0;
  std::size_t reflections_accepted_ = 0;
  std::size_t shrinks_accepted_ = 0;
  std::size_t probes_run_ = 0;
};

}  // namespace protuner::core
