#include "core/round_engine.h"

#include <algorithm>
#include <limits>
#include <string>

#include "core/evaluator.h"
#include "obs/trace.h"

namespace protuner::core {

namespace {

[[noreturn]] void misuse(const std::string& what) { throw EngineError(what); }

[[noreturn]] void bad_time(const char* who, double time) {
  misuse(std::string(who) + ": time " + std::to_string(time) +
         " is not finite and non-negative");
}

/// A NaN, infinite or negative time would corrupt T_k = max_p t_p and
/// Total_Time; harmony::Server::report refuses the same times.  This runs
/// per slot per step, so the test is one comparison pair (a NaN fails
/// both) and the message is built out of line.
void check_time(const char* who, double time) {
  if (!(time >= 0.0 && time <= std::numeric_limits<double>::max()))
      [[unlikely]] {
    bad_time(who, time);
  }
}

obs::Labels engine_labels(const RoundEngineOptions& options) {
  if (options.session.empty()) return {};
  return {{"session", options.session}};
}

obs::Registry& engine_registry(const RoundEngineOptions& options) {
  return options.metrics != nullptr ? *options.metrics
                                    : obs::Registry::global();
}

}  // namespace

RoundEngine::RoundEngine(TuningStrategy& strategy,
                         const RoundEngineOptions& options)
    : strategy_(strategy),
      options_(options),
      width_(options.width),
      obs_rounds_(engine_registry(options_).counter(
          "protuner_rounds_total", "Tuning rounds completed",
          engine_labels(options_))),
      obs_imputed_(engine_registry(options_).counter(
          "protuner_imputed_slots_total",
          "Straggler slots force-completed by imputation",
          engine_labels(options_))),
      obs_round_cost_(engine_registry(options_).histogram(
          "protuner_round_cost",
          "Step cost T_k = max per-rank time (simulated seconds)",
          engine_labels(options_))) {
  if (width_ == 0) misuse("RoundEngine: width must be >= 1");
  active_.assign(width_, true);
  strategy_.start(width_);
}

std::span<const Point> RoundEngine::open_round() {
  const obs::ScopedSpan span(obs::Tracer::global(), "round/assign");
  if (phase_ != RoundPhase::kAssigning) {
    misuse("open_round: a round is already open");
  }
  // The proposal lands in a member buffer and the assignment is built with
  // copy-assigns into recycled capacity: once the round shape stabilises
  // (it does immediately for a fixed width) opening a round allocates
  // nothing beyond what the strategy itself allocates.
  strategy_.propose_into(proposal_);
  if (proposal_.empty()) {
    misuse("open_round: strategy proposed an empty assignment");
  }
  if (proposal_.size() > width_) {
    misuse("open_round: strategy proposed more configs than the engine "
           "width");
  }
  proposal_size_ = proposal_.size();

  if (options_.pad_assignment) {
    if (active_count() == 0) misuse("open_round: no active slots");
    assignment_.resize(width_);
    expected_.assign(width_, false);
    config_slot_.assign(proposal_size_, kNoSlot);
    identity_mapping_ = true;
    std::size_t next_config = 0;
    for (std::size_t s = 0; s < width_; ++s) {
      if (!active_[s]) {
        // Placeholder only: an inactive slot is not running anything and is
        // excluded from the round's expectation set and step cost.
        assignment_[s] = strategy_.best_point();
        continue;
      }
      expected_[s] = true;
      if (next_config < proposal_size_) {
        identity_mapping_ = identity_mapping_ && (s == next_config);
        config_slot_[next_config] = s;
        assignment_[s] = proposal_[next_config];
        ++next_config;
      } else {
        // Ranks beyond the proposal keep running the strategy's best known
        // configuration (they must run *something* each step; this is the
        // useful choice).  Their times count toward the step cost but are
        // not fed back.
        assignment_[s] = strategy_.best_point();
      }
    }
    identity_mapping_ = identity_mapping_ && (next_config == proposal_size_);
  } else {
    // The proposal buffer becomes the assignment; the old assignment's
    // storage becomes the next round's proposal buffer.
    assignment_.swap(proposal_);
    expected_.assign(assignment_.size(), true);
    identity_mapping_ = true;
  }

  const std::size_t n = assignment_.size();
  times_.assign(n, 0.0);
  submitted_.assign(n, false);
  expected_count_ =
      static_cast<std::size_t>(std::count(expected_.begin(), expected_.end(),
                                          true));
  collected_ = 0;
  phase_ = RoundPhase::kCollecting;
  return assignment();
}

std::span<const Point> RoundEngine::assignment() const {
  if (phase_ != RoundPhase::kCollecting) {
    misuse("assignment: no round is open");
  }
  return {assignment_.data(), assignment_.size()};
}

const Point& RoundEngine::assignment_for(std::size_t slot) const {
  if (phase_ != RoundPhase::kCollecting) {
    misuse("assignment_for: no round is open");
  }
  if (slot >= assignment_.size()) misuse("assignment_for: slot out of range");
  return assignment_[slot];
}

void RoundEngine::submit(std::size_t slot, double time) {
  if (phase_ != RoundPhase::kCollecting) misuse("submit: no round is open");
  if (slot >= assignment_.size()) misuse("submit: slot out of range");
  if (!expected_[slot]) misuse("submit: slot is not part of this round");
  if (submitted_[slot]) misuse("submit: slot already reported this round");
  check_time("submit", time);
  times_[slot] = time;
  submitted_[slot] = true;
  ++collected_;
}

void RoundEngine::submit_all(std::span<const double> times) {
  if (phase_ != RoundPhase::kCollecting) {
    misuse("submit_all: no round is open");
  }
  if (times.size() != assignment_.size()) {
    misuse("submit_all: one time per assigned slot required");
  }
  for (const double t : times) check_time("submit_all", t);
  for (std::size_t s = 0; s < times.size(); ++s) submit(s, times[s]);
}

bool RoundEngine::complete() const {
  return phase_ == RoundPhase::kCollecting && collected_ == expected_count_;
}

bool RoundEngine::submitted(std::size_t slot) const {
  if (phase_ != RoundPhase::kCollecting) return false;
  if (slot >= submitted_.size()) misuse("submitted: slot out of range");
  return submitted_[slot];
}

bool RoundEngine::expected(std::size_t slot) const {
  if (phase_ != RoundPhase::kCollecting) return false;
  if (slot >= expected_.size()) misuse("expected: slot out of range");
  return expected_[slot];
}

double RoundEngine::impute_base() const {
  double worst = 0.0;
  bool any = false;
  for (std::size_t s = 0; s < times_.size(); ++s) {
    if (expected_[s] && submitted_[s]) {
      worst = any ? std::max(worst, times_[s]) : times_[s];
      any = true;
    }
  }
  if (any) return worst;
  if (rounds_completed_ > 0) return last_cost_;
  misuse("impute: no observation this round and no completed round to "
         "impute from");
}

std::vector<std::size_t> RoundEngine::impute_missing() {
  if (phase_ != RoundPhase::kCollecting) {
    misuse("impute_missing: no round is open");
  }
  std::vector<std::size_t> imputed;
  if (collected_ == expected_count_) return imputed;
  const double value = impute_base() * kImputePenalty;
  for (std::size_t s = 0; s < times_.size(); ++s) {
    if (expected_[s] && !submitted_[s]) {
      times_[s] = value;
      submitted_[s] = true;
      ++collected_;
      imputed.push_back(s);
    }
  }
  obs_imputed_.add(imputed.size());
  return imputed;
}

void RoundEngine::deactivate(std::size_t slot) {
  if (slot >= width_) misuse("deactivate: slot out of range");
  active_[slot] = false;
}

void RoundEngine::reactivate(std::size_t slot) {
  if (slot >= width_) misuse("reactivate: slot out of range");
  active_[slot] = true;
}

bool RoundEngine::active(std::size_t slot) const {
  if (slot >= width_) misuse("active: slot out of range");
  return active_[slot];
}

std::size_t RoundEngine::active_count() const {
  return static_cast<std::size_t>(
      std::count(active_.begin(), active_.end(), true));
}

double RoundEngine::close_round() {
  const obs::ScopedSpan span(obs::Tracer::global(), "round/advance");
  if (phase_ != RoundPhase::kCollecting) {
    misuse("close_round: no round is open");
  }
  if (collected_ != expected_count_) {
    misuse("close_round: " + std::to_string(pending()) +
           " slot(s) have not reported (impute_missing closes a round with "
           "stragglers)");
  }
  phase_ = RoundPhase::kAdvancing;

  // Eq. 1: the step costs what its slowest participating rank costs.
  double cost = 0.0;
  bool first = true;
  for (std::size_t s = 0; s < times_.size(); ++s) {
    if (!expected_[s]) continue;
    cost = first ? times_[s] : std::max(cost, times_[s]);
    first = false;
  }
  total_time_ += cost;  // Eq. 2
  last_cost_ = cost;
  obs_rounds_.add();
  obs_round_cost_.record(cost);
  if (options_.record_series) {
    step_costs_.push_back(cost);
    cumulative_.push_back(total_time_);
  }

  if (options_.observer != nullptr) {
    options_.observer->on_step(rounds_completed_,
                               {assignment_.data(), assignment_.size()},
                               {times_.data(), times_.size()}, cost);
  }

  // Feed the strategy in proposal order.  With the identity mapping (the
  // common case: no dropped slots) the collected times are already in
  // proposal order; otherwise remap, imputing configurations that had no
  // active slot to run them.
  if (identity_mapping_) {
    strategy_.observe({times_.data(), proposal_size_});
  } else {
    observe_scratch_.resize(proposal_size_);
    double unassigned = 0.0;
    bool have_unassigned = false;
    for (std::size_t j = 0; j < proposal_size_; ++j) {
      const std::size_t slot = config_slot_[j];
      if (slot != kNoSlot) {
        observe_scratch_[j] = times_[slot];
      } else {
        if (!have_unassigned) {
          unassigned = impute_base() * kImputePenalty;
          have_unassigned = true;
        }
        observe_scratch_[j] = unassigned;
      }
    }
    strategy_.observe(
        {observe_scratch_.data(), observe_scratch_.size()});
  }

  ++rounds_completed_;
  if (!convergence_round_.has_value() && strategy_.converged()) {
    convergence_round_ = rounds_completed_;
    if (options_.observer != nullptr) {
      options_.observer->on_converged(rounds_completed_,
                                      strategy_.best_point());
    }
  }
  phase_ = RoundPhase::kAssigning;
  return cost;
}

double RoundEngine::step(StepEvaluator& machine) {
  const obs::ScopedSpan span(obs::Tracer::global(), "round/step");
  open_round();
  // The member buffer makes the steady-state step allocation-free: the
  // machine writes its times straight into recycled storage.
  step_times_.resize(assignment_.size());
  {
    const obs::ScopedSpan collect(obs::Tracer::global(), "round/collect");
    machine.run_step_into({assignment_.data(), assignment_.size()},
                          {step_times_.data(), step_times_.size()});
  }
  submit_all({step_times_.data(), step_times_.size()});
  return close_round();
}

SessionResult RoundEngine::result() const {
  SessionResult r;
  r.steps = rounds_completed_;
  r.total_time = total_time_;
  r.step_costs = step_costs_;
  r.cumulative = cumulative_;
  r.best = strategy_.best_point();
  r.best_estimate = strategy_.best_estimate();
  r.convergence_step = convergence_round_;
  return r;
}

}  // namespace protuner::core
