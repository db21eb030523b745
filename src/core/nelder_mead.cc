#include "core/nelder_mead.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace protuner::core {

namespace {

constexpr double kInitialSize = 0.2;  ///< initial simplex relative size r

}  // namespace

NelderMeadStrategy::NelderMeadStrategy(ParameterSpace space,
                                       NelderMeadOptions opts)
    : space_(std::move(space)), opts_(opts) {
  assert(opts.samples >= 1);
}

void NelderMeadStrategy::start(std::size_t ranks) {
  ranks_ = std::max<std::size_t>(1, ranks);
  simplex_ = minimal_simplex(space_, kInitialSize);  // N+1 vertices
  phase_ = Phase::kInitEval;
  frozen_ = false;
  const std::vector<Point>& vs = simplex_.vertices();
  std::copy(vs.begin(), vs.end(), batch_.stage(vs.size()).begin());
  begin_batch();
}

void NelderMeadStrategy::begin_batch() {
  BatchState::Options bo;
  bo.samples = opts_.samples;
  batch_.start(/*ranks=*/1, bo);
}

void NelderMeadStrategy::propose_into(std::vector<Point>& out) {
  out.resize(ranks_);
  active_slots_ = phase_ == Phase::kDone ? 0 : batch_.next_assignment(out);
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(active_slots_),
            out.end(), simplex_.best());
}

void NelderMeadStrategy::observe(std::span<const double> times) {
  if (phase_ == Phase::kDone || active_slots_ == 0) return;
  assert(times.size() >= active_slots_);
  batch_.feed(times.first(active_slots_));
  if (batch_.done()) on_batch_done();
}

void NelderMeadStrategy::begin_along(double alpha) {
  // v_N + alpha (c - v_N), projected with the best vertex as the rounding
  // centre (the centroid itself is usually off-grid).
  const Point& worst = simplex_.vertex(simplex_.size() - 1);
  Point& p = batch_.stage(1)[0];
  p.resize(space_.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    p[i] = worst[i] + alpha * (centroid_[i] - worst[i]);
  }
  project(space_, simplex_.best(), p, p);
  begin_batch();
}

void NelderMeadStrategy::start_iteration() {
  if (opts_.max_iterations != 0 && iterations_ >= opts_.max_iterations) {
    phase_ = Phase::kDone;
    frozen_ = true;
    return;
  }
  ++iterations_;
  // Centroid of the N best vertices (all but the worst).
  const std::size_t n = simplex_.size() - 1;
  centroid_.assign(space_.size(), 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < centroid_.size(); ++i) {
      centroid_[i] += simplex_.vertex(j)[i];
    }
  }
  for (double& v : centroid_) v /= static_cast<double>(n);
  phase_ = Phase::kReflect;
  begin_along(2.0);
}

void NelderMeadStrategy::accept_worst_replacement(const Point& p, double v) {
  simplex_.replace(simplex_.size() - 1, p, v);
  simplex_.order();
  start_iteration();
}

void NelderMeadStrategy::on_batch_done() {
  switch (phase_) {
    case Phase::kInitEval: {
      simplex_.set_values(batch_.estimates());
      simplex_.order();
      start_iteration();
      break;
    }
    case Phase::kReflect: {
      reflect_point_ = batch_.points().front();
      reflect_value_ = batch_.estimates().front();
      if (reflect_value_ < simplex_.best_value()) {
        phase_ = Phase::kExpand;
        begin_along(3.0);
      } else if (reflect_value_ <
                 simplex_.value(simplex_.size() - 2)) {
        // Better than the second worst: plain reflection accepted.
        accept_worst_replacement(reflect_point_, reflect_value_);
      } else {
        phase_ = Phase::kContract;
        begin_along(0.5);
      }
      break;
    }
    case Phase::kExpand: {
      const Point& e = batch_.points().front();
      const double ev = batch_.estimates().front();
      if (ev < reflect_value_) {
        accept_worst_replacement(e, ev);
      } else {
        accept_worst_replacement(reflect_point_, reflect_value_);
      }
      break;
    }
    case Phase::kContract: {
      const Point& c = batch_.points().front();
      const double cv = batch_.estimates().front();
      if (cv < simplex_.value(simplex_.size() - 1)) {
        accept_worst_replacement(c, cv);
      } else {
        // Contraction failed: shrink the whole simplex around the best.
        phase_ = Phase::kShrinkEval;
        simplex_.shrinks(space_, batch_.stage(simplex_.size() - 1));
        begin_batch();
      }
      break;
    }
    case Phase::kShrinkEval: {
      const std::span<const Point> pts = batch_.points();
      const std::span<const double> vals = batch_.estimates();
      for (std::size_t j = 0; j < pts.size(); ++j) {
        simplex_.replace(j + 1, pts[j], vals[j]);
      }
      simplex_.order();
      start_iteration();
      break;
    }
    case Phase::kDone:
      break;
  }
}

std::string NelderMeadStrategy::name() const {
  std::ostringstream ss;
  ss << "NelderMead(r=" << kInitialSize << ", K=" << opts_.samples
     << ")";
  return ss.str();
}

}  // namespace protuner::core
