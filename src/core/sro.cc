#include "core/sro.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace protuner::core {

namespace {

constexpr double kInitialSize = 0.2;  ///< initial simplex relative size r

}  // namespace

SroStrategy::SroStrategy(ParameterSpace space, int samples)
    : space_(std::move(space)), samples_(samples) {
  assert(samples >= 1);
}

void SroStrategy::start(std::size_t ranks) {
  // SRO is inherently sequential (§3.1): it evaluates one new point per
  // time step no matter how many ranks the machine offers.  The remaining
  // processors still run the incumbent (they are part of the application),
  // so proposals are padded to full width for honest max-cost accounting.
  ranks_ = std::max<std::size_t>(1, ranks);
  simplex_ = axial_2n_simplex(space_, kInitialSize);
  phase_ = Phase::kInitEval;
  converged_ = false;
  const std::vector<Point>& vs = simplex_.vertices();
  std::copy(vs.begin(), vs.end(), batch_.stage(vs.size()).begin());
  begin_batch();
}

void SroStrategy::begin_batch() {
  BatchState::Options bo;
  bo.samples = samples_;
  batch_.start(/*ranks=*/1, bo);
}

void SroStrategy::begin_worst_move(double a, double b) {
  Point& p = batch_.stage(1)[0];
  affine(a, simplex_.best(), b, simplex_.vertex(simplex_.size() - 1), p);
  project(space_, simplex_.best(), p, p);
  begin_batch();
}

void SroStrategy::propose_into(std::vector<Point>& out) {
  out.resize(ranks_);
  active_slots_ = phase_ == Phase::kDone ? 0 : batch_.next_assignment(out);
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(active_slots_),
            out.end(), simplex_.best());
}

void SroStrategy::observe(std::span<const double> times) {
  if (phase_ == Phase::kDone || active_slots_ == 0) return;
  assert(times.size() >= active_slots_);
  batch_.feed(times.first(active_slots_));
  if (batch_.done()) on_batch_done();
}

void SroStrategy::on_batch_done() {
  switch (phase_) {
    case Phase::kInitEval: {
      simplex_.set_values(batch_.estimates());
      simplex_.order();
      phase_ = Phase::kReflectCheck;
      // Reflect the worst vertex through the best (Algorithm 1 line 5).
      begin_worst_move(2.0, -1.0);
      break;
    }
    case Phase::kReflectCheck: {
      ++iterations_;
      reflect_point_ = batch_.points().front();
      reflect_value_ = batch_.estimates().front();
      if (reflect_value_ < simplex_.best_value()) {
        phase_ = Phase::kExpandCheck;
        begin_worst_move(3.0, -2.0);
      } else {
        phase_ = Phase::kApplyShrink;
        simplex_.shrinks(space_, batch_.stage(simplex_.size() - 1));
        begin_batch();
      }
      break;
    }
    case Phase::kExpandCheck: {
      const double e_val = batch_.estimates().front();
      if (e_val < reflect_value_) {
        phase_ = Phase::kApplyExpand;
        simplex_.expansions(space_, batch_.stage(simplex_.size() - 1));
      } else {
        phase_ = Phase::kApplyReflect;
        simplex_.reflections(space_, batch_.stage(simplex_.size() - 1));
      }
      begin_batch();
      break;
    }
    case Phase::kApplyExpand:
    case Phase::kApplyReflect:
    case Phase::kApplyShrink: {
      const std::span<const Point> pts = batch_.points();
      const std::span<const double> vals = batch_.estimates();
      for (std::size_t j = 0; j < pts.size(); ++j) {
        simplex_.replace(j + 1, pts[j], vals[j]);
      }
      simplex_.order();
      after_accept();
      break;
    }
    case Phase::kProbe: {
      const std::span<const double> vals = batch_.estimates();
      const auto l = static_cast<std::size_t>(
          std::min_element(vals.begin(), vals.end()) - vals.begin());
      if (vals[l] < simplex_.best_value()) {
        simplex_.assign(batch_.points(), vals, /*keep_best=*/true);
        simplex_.order();
        phase_ = Phase::kReflectCheck;
        begin_worst_move(2.0, -1.0);
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

void SroStrategy::after_accept() {
  if (!simplex_.collapsed(space_)) {
    phase_ = Phase::kReflectCheck;
    begin_worst_move(2.0, -1.0);
    return;
  }
  const std::size_t n = probe_points(space_, simplex_.best(),
                                     batch_.stage(2 * space_.size()));
  if (n == 0) {
    converged_ = true;
    phase_ = Phase::kDone;
    return;
  }
  phase_ = Phase::kProbe;
  batch_.stage(n);  // keeps the n probe points just written
  begin_batch();
}

std::string SroStrategy::name() const {
  std::ostringstream ss;
  ss << "SRO(r=" << kInitialSize << ", simplex=2N, K=" << samples_ << ")";
  return ss.str();
}

}  // namespace protuner::core
