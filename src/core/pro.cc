#include "core/pro.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

#include "obs/trace.h"

namespace protuner::core {

ProStrategy::ProStrategy(ParameterSpace space, ProOptions opts)
    : space_(std::move(space)), opts_(opts) {
  assert(opts.initial_size > 0.0);
  assert(opts.samples >= 1);
  assert(opts.max_samples >= opts.samples);
  assert(!opts.adaptive_samples || opts.refresh_best);
}

void ProStrategy::start(std::size_t ranks) {
  assert(ranks >= 1);
  ranks_ = ranks;
  simplex_ = initial_override_.has_value()
                 ? *initial_override_
                 : (opts_.use_2n_simplex
                        ? axial_2n_simplex(space_, opts_.initial_size)
                        : minimal_simplex(space_, opts_.initial_size));
  phase_ = Phase::kInitEval;
  converged_ = false;
  const std::vector<Point>& vs = simplex_.vertices();
  std::copy(vs.begin(), vs.end(),
            stage_batch(vs.size(), /*with_refresh=*/false).begin());
  begin_batch();
}

std::span<Point> ProStrategy::stage_batch(std::size_t candidates,
                                          bool with_refresh) {
  batch_has_refresh_ = with_refresh && opts_.refresh_best;
  const std::span<Point> pts =
      batch_.stage(candidates + (batch_has_refresh_ ? 1 : 0));
  if (batch_has_refresh_) {
    // The incumbent rides along with the candidates: in a live SPMD system
    // its processor keeps running it anyway, so the measurement is free.
    pts.back() = simplex_.best();
  }
  return pts.first(candidates);
}

void ProStrategy::begin_batch() {
  BatchState::Options bo;
  bo.samples = opts_.samples;
  bo.estimator = opts_.estimator;
  bo.parallel_replicas = opts_.parallel_replicas;
  bo.racing = opts_.racing;
  batch_.start(ranks_, bo);
}

void ProStrategy::begin_reflections() {
  simplex_.reflections(space_, stage_batch(simplex_.size() - 1,
                                           /*with_refresh=*/true));
  begin_batch();
}

std::span<const double> ProStrategy::split_refresh() {
  std::span<const double> estimates = batch_.estimates();
  if (batch_has_refresh_) {
    simplex_.set_value(0, estimates.back());
    if (opts_.adaptive_samples) update_adaptive_k(estimates.back());
    estimates = estimates.first(estimates.size() - 1);
  }
  return estimates;
}

namespace {

/// Adaptive K: a sample "hits the floor" within this relative distance of
/// the window minimum, and K is sized so min-of-K misses the floor with at
/// most this probability (Eq. 11/22).
constexpr double kAdaptiveLambda = 0.05;
constexpr double kAdaptiveEpsilon = 0.10;

/// Fraction of a window lying within (1 + kAdaptiveLambda) of its own
/// minimum — the empirical per-sample floor-hit probability q.
double floor_hit_fraction(const std::vector<double>& window) {
  const double floor = *std::min_element(window.begin(), window.end());
  std::size_t hits = 0;
  for (double y : window) {
    if (y <= floor * (1.0 + kAdaptiveLambda)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(window.size());
}

}  // namespace

void ProStrategy::update_adaptive_k(double fresh_observation) {
  // Evidence lives in two layers: raw observations of the *current*
  // incumbent (comparable against one true floor), and an EWMA of the
  // per-sample floor-hit probability q folded in whenever the anchor
  // changes — so the machine-level variability estimate survives anchor
  // churn without stale-floor bias.
  if (incumbent_tracked_ != simplex_.best()) {
    if (incumbent_window_.size() >= 4) {
      const double q_local =
          floor_hit_fraction(incumbent_window_);
      q_ewma_ = q_ewma_ < 0.0 ? q_local : 0.7 * q_ewma_ + 0.3 * q_local;
    }
    incumbent_tracked_ = simplex_.best();
    incumbent_window_.clear();
  }
  incumbent_window_.push_back(fresh_observation);
  constexpr std::size_t kWindow = 32;
  if (incumbent_window_.size() > kWindow) {
    incumbent_window_.erase(incumbent_window_.begin());
  }

  double q_est = q_ewma_;
  if (incumbent_window_.size() >= 6) {
    const double q_local =
        floor_hit_fraction(incumbent_window_);
    q_est = q_est < 0.0 ? q_local : 0.5 * (q_est + q_local);
  }
  if (q_est < 0.0) return;  // no usable evidence yet

  // Eq. 11: P[min-of-K misses the floor] = (1 - q)^K, solved at epsilon.
  const double q = std::clamp(q_est, 0.05, 0.999);
  const int k = static_cast<int>(
      std::ceil(std::log(kAdaptiveEpsilon) / std::log(1.0 - q)));
  opts_.samples = std::clamp(k, 1, opts_.max_samples);
}

void ProStrategy::propose_into(std::vector<Point>& out) {
  // Every processor runs one iteration each time step (paper §2): slots not
  // occupied by candidates run the incumbent, and the step cost is the max
  // over *all* of them.  Padding therefore matters for honest accounting.
  // Both are copy-assigned into the caller's Points, so a warm buffer is
  // reused in every phase, converged or not.
  out.resize(ranks_);
  active_slots_ = phase_ == Phase::kDone ? 0 : batch_.next_assignment(out);
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(active_slots_),
            out.end(), simplex_.best());
}

void ProStrategy::observe(std::span<const double> times) {
  if (phase_ == Phase::kDone || active_slots_ == 0) return;
  assert(times.size() >= active_slots_);
  batch_.feed(times.first(active_slots_));
  if (batch_.done()) on_batch_done();
}

void ProStrategy::adopt_new_vertices(std::span<const Point> pts,
                                     std::span<const double> vals) {
  // New simplex = old best vertex (with its existing estimate) plus the
  // accepted transformed points (Algorithm 2: v^0 survives, j=1..n replaced).
  assert(pts.size() == simplex_.size() - 1);
  for (std::size_t j = 0; j < pts.size(); ++j) {
    simplex_.replace(j + 1, pts[j], vals[j]);
  }
  simplex_.order();
}

void ProStrategy::on_batch_done() {
  switch (phase_) {
    case Phase::kInitEval: {
      simplex_.set_values(batch_.estimates());
      simplex_.order();
      phase_ = Phase::kReflect;
      begin_reflections();
      break;
    }
    case Phase::kReflect: {
      ++iterations_;
      const std::span<const double> vals = split_refresh();
      const std::span<const Point> pts = batch_.points().first(vals.size());
      // Same-size assign copy-assigns element-wise: the reflections from
      // the previous iteration lend their Points' capacity.
      reflect_values_.assign(vals.begin(), vals.end());
      reflect_points_.assign(pts.begin(), pts.end());
      best_reflect_ = static_cast<std::size_t>(
          std::min_element(reflect_values_.begin(), reflect_values_.end()) -
          reflect_values_.begin());
      if (reflect_values_[best_reflect_] < simplex_.best_value()) {
        if (opts_.expansion_check) {
          // Most promising expansion: of the vertex whose reflection won.
          const Point& source = simplex_.vertex(best_reflect_ + 1);
          phase_ = Phase::kExpandCheck;
          simplex_.expansion_of(space_, source,
                                stage_batch(1, /*with_refresh=*/false)[0]);
        } else {
          phase_ = Phase::kExpandAllDirect;
          simplex_.expansions(space_, stage_batch(simplex_.size() - 1,
                                                  /*with_refresh=*/true));
        }
      } else {
        phase_ = Phase::kShrink;
        simplex_.shrinks(space_, stage_batch(simplex_.size() - 1,
                                             /*with_refresh=*/true));
      }
      begin_batch();
      break;
    }
    case Phase::kExpandCheck: {
      const obs::ScopedSpan span(obs::Tracer::global(), "pro/expansion_check");
      const double e_val = batch_.estimates().front();
      if (e_val < reflect_values_[best_reflect_]) {
        phase_ = Phase::kExpandAll;
        simplex_.expansions(space_, stage_batch(simplex_.size() - 1,
                                                /*with_refresh=*/true));
        begin_batch();
      } else {
        ++reflections_accepted_;
        adopt_new_vertices(reflect_points_, reflect_values_);
        after_accept();
      }
      break;
    }
    case Phase::kExpandAll: {
      ++expansions_accepted_;
      const std::span<const double> vals = split_refresh();
      adopt_new_vertices(batch_.points().first(vals.size()), vals);
      after_accept();
      break;
    }
    case Phase::kExpandAllDirect: {
      // Ablation path: all n expansions were evaluated without the check.
      const std::span<const double> e_vals = split_refresh();
      const double e_best = *std::min_element(e_vals.begin(), e_vals.end());
      if (e_best < reflect_values_[best_reflect_]) {
        ++expansions_accepted_;
        adopt_new_vertices(batch_.points().first(e_vals.size()), e_vals);
      } else {
        ++reflections_accepted_;
        adopt_new_vertices(reflect_points_, reflect_values_);
      }
      after_accept();
      break;
    }
    case Phase::kShrink: {
      const obs::ScopedSpan span(obs::Tracer::global(), "pro/shrink");
      ++shrinks_accepted_;
      const std::span<const double> vals = split_refresh();
      adopt_new_vertices(batch_.points().first(vals.size()), vals);
      after_accept();
      break;
    }
    case Phase::kProbe: {
      const std::span<const double> vals = split_refresh();
      const std::size_t l = static_cast<std::size_t>(
          std::min_element(vals.begin(), vals.end()) - vals.begin());
      if (vals[l] < simplex_.best_value()) {
        // Not a local minimum: continue PRO with the generated simplex
        // (§3.2.2).  In the faithful variant the incumbent is dropped; the
        // conservative variant appends it so its estimate is never lost.
        simplex_.assign(batch_.points().first(vals.size()), vals,
                        opts_.keep_incumbent_after_probe);
        simplex_.order();
        phase_ = Phase::kReflect;
        begin_reflections();
      } else {
        converged_ = true;
        phase_ = Phase::kDone;
      }
      break;
    }
    case Phase::kDone:
      break;
  }
}

void ProStrategy::after_accept() {
  if (!simplex_.collapsed(space_)) {
    phase_ = Phase::kReflect;
    begin_reflections();
    return;
  }
  // The probe points are written straight into the batch storage;
  // stage_batch() below keeps them and appends the refresh slot.
  const std::size_t n = probe_points(space_, simplex_.best(),
                                     batch_.stage(2 * space_.size()));
  if (n == 0) {
    converged_ = true;  // best sits in a fully-boundary corner
    phase_ = Phase::kDone;
    return;
  }
  ++probes_run_;
  phase_ = Phase::kProbe;
  stage_batch(n, /*with_refresh=*/true);
  begin_batch();
}

const Point& ProStrategy::best_point() const { return simplex_.best(); }

double ProStrategy::best_estimate() const { return simplex_.best_value(); }

std::string ProStrategy::name() const {
  std::ostringstream ss;
  ss << "PRO(r=" << opts_.initial_size
     << ", simplex=" << (opts_.use_2n_simplex ? "2N" : "N+1")
     << ", K=" << opts_.samples << ", est=" << estimator_name(opts_.estimator)
     << (opts_.expansion_check ? "" : ", no-expcheck") << ")";
  return ss.str();
}

}  // namespace protuner::core
