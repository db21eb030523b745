// Ranking and selection over a sampled candidate set (Ni, Henderson &
// Ciocan, "Efficient Ranking and Selection in Parallel Computing
// Environments", PAPERS.md) — a direct competitor to the paper's min-of-K
// vertex selection for picking the best configuration under noise.
//
// Screen-to-the-best subset selection adapted to the bulk-synchronous
// tuning round: a fixed candidate set (the space centre plus m-1 random
// admissible configurations) is sampled breadth-first, `ranks` evaluations
// per application time step, least-sampled-survivor first.  Once every
// survivor holds n0 observations, a screening pass eliminates each
// candidate whose running minimum exceeds the best survivor's running
// minimum by more than the relative indifference margin (5%).  This is the
// heavy-tail form of the screen, the drop-in replacement for min-of-K: the
// min-of-K limit L_y -> f + n_min makes the running minimum the right
// statistic exactly where means diverge (paper §5), so the classic Welch
// screen on means is not offered.
//
// When one survivor remains the strategy freezes on it (converged); until
// then idle ranks keep re-sampling survivors, so wider machines screen
// faster — the Ni & Henderson premise that parallelism should buy
// statistical efficiency, not just throughput.
#pragma once

#include <cstdint>

#include "core/parameter_space.h"
#include "core/strategy.h"
#include "util/rng.h"

namespace protuner::core {

struct RankingSelectionOptions {
  std::size_t candidates = 16;  ///< m: size of the sampled candidate set
  std::size_t n0 = 4;           ///< observations per candidate before screening
  std::uint64_t seed = 1;
};

class RankingSelectionStrategy final : public TuningStrategy {
 public:
  RankingSelectionStrategy(ParameterSpace space, RankingSelectionOptions opts);

  void start(std::size_t ranks) override;
  void propose_into(std::vector<Point>& out) override;
  void observe(std::span<const double> times) override;
  const Point& best_point() const override;
  double best_estimate() const override;
  bool converged() const override { return winner_ >= 0; }
  std::string name() const override { return "RankingSelection-min"; }

  std::size_t survivors() const;

 private:
  struct Candidate {
    Point config;
    std::size_t n = 0;      ///< observations taken
    double min = 0.0;       ///< running minimum
    bool alive = true;
  };

  std::size_t best_alive() const;
  void screen();
  void declare(std::size_t index);

  ParameterSpace space_;
  RankingSelectionOptions opts_;
  std::size_t ranks_ = 1;

  std::vector<Candidate> candidates_;
  std::vector<std::size_t> pending_;  ///< candidate index per proposal slot
  std::vector<std::size_t> virtual_n_;  ///< propose_into's per-candidate slots
  long winner_ = -1;                  ///< index once selected
  std::size_t stable_passes_ = 0;        ///< screening passes with no kill
  std::size_t eliminated_this_pass_ = 0;
};

}  // namespace protuner::core
