#include "cluster/clean_cache.h"

#include <cstring>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.h"

namespace protuner::cluster {

namespace {

/// Replay-vs-recompute tallies, shared by every cache in the process and
/// resolved once: protuner_clean_cache_total{result=replay|recompute}.
struct CacheCounters {
  obs::Counter& replay;
  obs::Counter& recompute;
};

CacheCounters& cache_counters() {
  static CacheCounters c{
      obs::Registry::global().counter(
          "protuner_clean_cache_total",
          "Clean-time batch refreshes by outcome", {{"result", "replay"}}),
      obs::Registry::global().counter("protuner_clean_cache_total", {},
                                      {{"result", "recompute"}})};
  return c;
}

}  // namespace

bool CleanTimeCache::matches(std::span<const core::Point> configs) const {
  if (!valid_ || configs.size() != sizes_.size()) return false;
  std::size_t off = 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const core::Point& x = configs[i];
    if (x.size() != sizes_[i]) return false;
    // Bitwise compare: strictly conservative (a -0.0 vs 0.0 mismatch just
    // recomputes) and the per-point hot-path cost is three inline 8-byte
    // compares instead of a bounds-checked double loop.
    if (std::memcmp(x.data(), coords_.data() + off,
                    x.size() * sizeof(double)) != 0) {
      return false;
    }
    off += x.size();
  }
  return true;
}

void CleanTimeCache::store(std::span<const core::Point> configs) {
  sizes_.resize(configs.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    sizes_[i] = static_cast<std::uint32_t>(configs[i].size());
    total += configs[i].size();
  }
  coords_.resize(total);
  std::size_t off = 0;
  for (const core::Point& x : configs) {
    for (std::size_t d = 0; d < x.size(); ++d) coords_[off + d] = x[d];
    off += x.size();
  }
  valid_ = true;
}

bool CleanTimeCache::refresh(const core::Landscape& landscape,
                             std::span<const core::Point> configs) {
  if (matches(configs)) {
    cache_counters().replay.add();
    return true;
  }
  cache_counters().recompute.add();

  clean_.resize(configs.size());
  landscape.clean_times(configs, {clean_.data(), clean_.size()});
  for (std::size_t i = 0; i < clean_.size(); ++i) {
    if (!(clean_[i] > 0.0)) {
      valid_ = false;  // don't replay a batch we rejected
      std::ostringstream ss;
      ss << "CleanTimeCache: landscape '" << landscape.name()
         << "' returned non-positive clean time " << clean_[i]
         << " for batch entry " << i
         << " (clean times must be strictly positive)";
      throw std::domain_error(ss.str());
    }
  }
  store(configs);
  return false;
}

}  // namespace protuner::cluster
