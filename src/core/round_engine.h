// The tuning round lifecycle, extracted into one engine (paper §2).
//
// Every driver in the system — the synchronous run_session loop, the
// Harmony client/server front end (in-process and over the wire) and the
// bench harnesses — advances an application through the same
// bulk-synchronous round:
//
//       ┌────────────┐ open_round ┌────────────┐ close_round ┌───────────┐
//       │ Assigning  ├───────────►│ Collecting ├────────────►│ Advancing │
//       └────────────┘            └────────────┘             └─────┬─────┘
//             ▲      publish the     submit per-rank    account T_k = max,│
//             │      assignment      times; impute      observer fan-out, │
//             │                      stragglers         strategy.observe, │
//             └────────────────────────────────────────────────────────────┘
//
// The engine owns everything those drivers used to duplicate: assignment
// publication (with best-point padding for idle ranks), per-rank time
// collection, the paper's accounting (Eq. 1 `T_k = max_p t_{p,k}`,
// Eq. 2 `Total_Time = Σ T_k`), strategy advance, convergence detection and
// SessionObserver fan-out.  It also centralises the straggler policy the
// serving layer needs: a round may be force-completed by imputing every
// missing rank's time as max-of-observed × penalty (the paper's worst-case
// metric makes this the natural pessimistic estimate), and ranks can be
// deactivated (dropped from future rounds) and reactivated (re-entry).
//
// The engine is transport-free and NOT thread-safe: concurrent front ends
// (harmony::Server) serialise access with their own lock.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/session.h"
#include "core/strategy.h"
#include "obs/metrics.h"

namespace protuner::core {

/// Misuse of the round state machine (wrong phase, out-of-range slot,
/// double submit, ...).  These are caller bugs, reported loudly instead of
/// silently corrupting the accounting.
class EngineError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

enum class RoundPhase {
  kAssigning,   ///< between rounds; open_round() is the only legal advance
  kCollecting,  ///< a round is open; submit times until complete()
  kAdvancing,   ///< transient, observable from observer callbacks only
};

/// A straggler's imputed time is (max time observed this round) × this
/// factor: >= 1, so imputation never under-states the step cost.
inline constexpr double kImputePenalty = 1.5;

struct RoundEngineOptions {
  /// Parallel width: the rank count the strategy is started with.
  std::size_t width = 1;
  /// When true, the published assignment always has `width` entries: ranks
  /// beyond the strategy's proposal run the best known configuration (they
  /// must run *something* each step; their times count toward the step cost
  /// but are not fed back).  The synchronous driver runs unpadded: the
  /// machine evaluates exactly the proposal.
  bool pad_assignment = false;
  /// Keep the per-step T_k / cumulative series (off to save memory).
  bool record_series = true;
  /// Optional caller callback (CSV logging, a convergence watch), invoked
  /// from close_round().  The engine's own instruments below need none.
  SessionObserver* observer = nullptr;
  /// Registry the engine's telemetry (rounds/imputations counters, round
  /// cost histogram) is registered in; null means obs::Registry::global().
  obs::Registry* metrics = nullptr;
  /// Label value for the engine's instruments' {"session", ...} label;
  /// empty registers them unlabelled.
  std::string session;
};

class RoundEngine {
 public:
  RoundEngine(TuningStrategy& strategy, const RoundEngineOptions& options);

  RoundPhase phase() const { return phase_; }

  // ----------------------------------------------------------- Assigning
  /// Publishes the next round's assignment (Assigning -> Collecting) and
  /// returns it: one configuration per slot.  Padded engines map the
  /// proposal onto the active slots in rank order and pad the rest with
  /// the best known point; unpadded engines publish the proposal verbatim.
  std::span<const Point> open_round();

  // ---------------------------------------------------------- Collecting
  /// The open round's assignment (valid until close_round()).
  std::span<const Point> assignment() const;
  const Point& assignment_for(std::size_t slot) const;

  /// Records one slot's observed iteration time.  Throws EngineError, and
  /// changes nothing, on a NaN, infinite or negative time.
  void submit(std::size_t slot, double time);
  /// Records every slot's time at once (the synchronous-driver path); any
  /// invalid time throws before the first slot is recorded.
  void submit_all(std::span<const double> times);

  /// True once every expected slot has reported.
  bool complete() const;
  /// Expected slots that have not reported yet.
  std::size_t pending() const { return expected_count_ - collected_; }
  bool submitted(std::size_t slot) const;
  /// True when `slot` participates in the open round (active at open time).
  bool expected(std::size_t slot) const;

  /// Deadline support: fills every missing slot's time with
  /// max-of-observed × kImputePenalty (falling back to the previous round's
  /// T_k when nothing was observed this round) and returns the slots that
  /// were imputed.  The round then reads complete().  Throws EngineError
  /// when there is no observation at all to impute from.
  std::vector<std::size_t> impute_missing();

  // ------------------------------------------------- rank membership
  /// Removes a slot from future rounds (takes effect at the next
  /// open_round; the open round's expectation set is unchanged).
  void deactivate(std::size_t slot);
  /// Re-admits a dropped slot from the next open_round on (rank re-entry).
  void reactivate(std::size_t slot);
  bool active(std::size_t slot) const;
  std::size_t active_count() const;

  // ----------------------------------------------------------- Advancing
  /// Requires complete().  Accounts the step cost T_k = max over the
  /// round's times, streams the observer, feeds the strategy (imputing
  /// configurations that had no rank to run them, if any), detects first
  /// convergence and returns to Assigning.  Returns T_k.
  double close_round();

  /// One whole synchronous step: open, evaluate on `machine`, close.
  double step(StepEvaluator& machine);

  // ---------------------------------------------------------- accounting
  double total_time() const { return total_time_; }
  std::size_t rounds_completed() const { return rounds_completed_; }
  const std::vector<double>& step_costs() const { return step_costs_; }
  const std::vector<double>& cumulative() const { return cumulative_; }
  /// First round (1-based) at which the strategy reported convergence.
  std::optional<std::size_t> convergence_round() const {
    return convergence_round_;
  }
  std::size_t width() const { return width_; }
  const TuningStrategy& strategy() const { return strategy_; }

  /// Accounting snapshot as a SessionResult.  `ntt` and `best_clean` need
  /// machine knowledge (rho, clean times) and are left at their defaults
  /// for the caller to fill.
  SessionResult result() const;

 private:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  double impute_base() const;

  TuningStrategy& strategy_;
  const RoundEngineOptions options_;
  const std::size_t width_;

  // Telemetry, resolved once at construction (registry lookups lock and
  // allocate); recording on these references is allocation-free.
  obs::Counter& obs_rounds_;
  obs::Counter& obs_imputed_;
  obs::Histogram& obs_round_cost_;

  RoundPhase phase_ = RoundPhase::kAssigning;
  std::vector<Point> proposal_;          ///< propose_into target (recycled)
  std::vector<Point> assignment_;        ///< per-slot configs (open round)
  std::vector<double> step_times_;       ///< step() scratch (recycled)
  std::size_t proposal_size_ = 0;        ///< configs the strategy proposed
  std::vector<std::size_t> config_slot_; ///< proposal config -> slot
  bool identity_mapping_ = true;         ///< config j ran on slot j
  std::vector<double> times_;            ///< per-slot reported times
  std::vector<bool> submitted_;
  std::vector<bool> expected_;           ///< slot participates this round
  std::size_t expected_count_ = 0;
  std::size_t collected_ = 0;
  std::vector<bool> active_;             ///< membership for future rounds
  std::vector<double> observe_scratch_;  ///< proposal-order times for observe

  double total_time_ = 0.0;
  double last_cost_ = 0.0;
  std::size_t rounds_completed_ = 0;
  std::vector<double> step_costs_;
  std::vector<double> cumulative_;
  std::optional<std::size_t> convergence_round_;
};

}  // namespace protuner::core
