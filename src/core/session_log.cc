#include "core/session_log.h"

#include <algorithm>
#include <ostream>
#include <vector>

namespace protuner::core {

CsvSessionLogger::CsvSessionLogger(std::ostream& out) : csv_(out) {
  csv_.header({"step", "cost", "cumulative", "distinct_configs"});
}

void CsvSessionLogger::on_step(std::size_t step, std::span<const Point> configs,
                               std::span<const double>, double cost) {
  cumulative_ += cost;
  std::vector<Point> uniq(configs.begin(), configs.end());
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  csv_.row(step, cost, cumulative_, uniq.size());
}

void CsvSessionLogger::on_converged(std::size_t step, const Point&) {
  converged_at_ = step;
}

}  // namespace protuner::core
