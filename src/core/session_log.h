// A ready-made session observer: a CSV step logger.  Implementation lives
// in session_log.cc.
#pragma once

#include <cstddef>
#include <iosfwd>

#include "core/session.h"
#include "util/csv.h"

namespace protuner::core {

/// Streams one CSV row per time step: step index, cost T_k, cumulative
/// total, and the number of distinct configurations run that step.
class CsvSessionLogger final : public SessionObserver {
 public:
  explicit CsvSessionLogger(std::ostream& out);

  void on_step(std::size_t step, std::span<const Point> configs,
               std::span<const double> times, double cost) override;
  void on_converged(std::size_t step, const Point& best) override;

  double cumulative() const { return cumulative_; }
  std::size_t converged_at() const { return converged_at_; }

 private:
  util::CsvWriter csv_;
  double cumulative_ = 0.0;
  std::size_t converged_at_ = 0;
};

}  // namespace protuner::core
