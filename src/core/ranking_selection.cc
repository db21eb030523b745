#include "core/ranking_selection.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace protuner::core {

namespace {

/// Indifference zone, relative to the leader's running minimum: differences
/// below this fraction are ties we do not pay to resolve.
constexpr double kDelta = 0.05;

}  // namespace

RankingSelectionStrategy::RankingSelectionStrategy(
    ParameterSpace space, RankingSelectionOptions opts)
    : space_(std::move(space)), opts_(opts) {
  assert(opts.candidates >= 2);
  assert(opts.n0 >= 2);
}

void RankingSelectionStrategy::start(std::size_t ranks) {
  assert(ranks >= 1);
  ranks_ = ranks;
  winner_ = -1;
  stable_passes_ = 0;
  eliminated_this_pass_ = 0;
  candidates_.clear();
  candidates_.reserve(opts_.candidates);

  util::Rng rng(opts_.seed);
  const auto push_unique = [&](Point p) {
    for (const auto& c : candidates_) {
      if (c.config == p) return;
    }
    Candidate c;
    c.config = std::move(p);
    candidates_.push_back(std::move(c));
  };
  push_unique(space_.center());
  // Rejection-sample distinct admissible candidates; small discrete spaces
  // may saturate before reaching m, which is fine — the set is then the
  // whole reachable sample.
  for (std::size_t tries = 0;
       candidates_.size() < opts_.candidates && tries < opts_.candidates * 64;
       ++tries) {
    push_unique(space_.random_point(rng));
  }
  pending_.clear();
}

std::size_t RankingSelectionStrategy::best_alive() const {
  std::size_t best = candidates_.size();
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    const Candidate& c = candidates_[i];
    if (!c.alive || c.n == 0) continue;
    if (best == candidates_.size() || c.min < candidates_[best].min) {
      best = i;
    }
  }
  return best;
}

void RankingSelectionStrategy::propose_into(std::vector<Point>& out) {
  if (winner_ >= 0) {
    out.resize(ranks_);
    for (Point& slot : out) {
      slot = candidates_[static_cast<std::size_t>(winner_)].config;
    }
    return;
  }
  // Breadth-first allocation: fill the step with the least-sampled
  // survivors (ties by index, so the schedule is deterministic).  `virtual
  // counts` include this step's slots so one round spreads evenly.
  pending_.clear();
  virtual_n_.assign(candidates_.size(), 0);
  for (std::size_t slot = 0; slot < ranks_; ++slot) {
    std::size_t pick = candidates_.size();
    for (std::size_t i = 0; i < candidates_.size(); ++i) {
      if (!candidates_[i].alive) continue;
      if (pick == candidates_.size() ||
          candidates_[i].n + virtual_n_[i] <
              candidates_[pick].n + virtual_n_[pick]) {
        pick = i;
      }
    }
    assert(pick < candidates_.size());
    ++virtual_n_[pick];
    pending_.push_back(pick);
  }
  out.resize(pending_.size());
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    out[i] = candidates_[pending_[i]].config;
  }
}

void RankingSelectionStrategy::observe(std::span<const double> times) {
  if (winner_ >= 0) return;
  assert(times.size() >= pending_.size());
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    Candidate& c = candidates_[pending_[i]];
    const double y = times[i];
    ++c.n;
    c.min = c.n == 1 ? y : std::min(c.min, y);
  }
  pending_.clear();
  screen();
}

void RankingSelectionStrategy::screen() {
  // Screening needs every survivor at the first-stage count.
  std::size_t alive = 0;
  for (const Candidate& c : candidates_) {
    if (!c.alive) continue;
    ++alive;
    if (c.n < opts_.n0) return;
  }
  if (alive <= 1) {
    declare(best_alive());
    return;
  }

  const std::size_t best = best_alive();
  const Candidate& b = candidates_[best];
  const double margin = kDelta * std::abs(b.min);

  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    if (i == best || !candidates_[i].alive) continue;
    Candidate& c = candidates_[i];
    // The min converges to f + n_min from above, so a minimum that stays
    // kDelta above the leader's after n0 draws is a loser with min-of-K
    // confidence (paper Eq. 11/22 logic).
    if (c.min > b.min + margin) {
      c.alive = false;
      ++eliminated_this_pass_;
    }
  }

  if (survivors() <= 1) {
    declare(best_alive());
    return;
  }

  // Indifference-zone termination: when a screening pass eliminates nobody
  // for n0 consecutive passes AND every survivor's statistic sits within
  // the indifference margin of the leader's, the remaining candidates are
  // ties at the resolution we were asked for — select the leader instead of
  // paying forever to separate them.
  if (eliminated_this_pass_ == 0) {
    ++stable_passes_;
  } else {
    stable_passes_ = 0;
  }
  eliminated_this_pass_ = 0;
  if (stable_passes_ >= opts_.n0) {
    bool all_tied = true;
    for (const Candidate& c : candidates_) {
      if (c.alive && c.min > b.min + margin) {
        all_tied = false;
        break;
      }
    }
    if (all_tied) declare(best);
  }
}

void RankingSelectionStrategy::declare(std::size_t index) {
  assert(index < candidates_.size());
  winner_ = static_cast<long>(index);
}

std::size_t RankingSelectionStrategy::survivors() const {
  std::size_t n = 0;
  for (const Candidate& c : candidates_) n += c.alive ? 1 : 0;
  return n;
}

const Point& RankingSelectionStrategy::best_point() const {
  if (winner_ >= 0) {
    return candidates_[static_cast<std::size_t>(winner_)].config;
  }
  const std::size_t best = best_alive();
  return best < candidates_.size() ? candidates_[best].config
                                   : candidates_.front().config;
}

double RankingSelectionStrategy::best_estimate() const {
  if (winner_ >= 0) {
    return candidates_[static_cast<std::size_t>(winner_)].min;
  }
  const std::size_t best = best_alive();
  return best < candidates_.size() ? candidates_[best].min : 0.0;
}

}  // namespace protuner::core
