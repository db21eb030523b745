#include "gs2/database.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <istream>
#include <limits>
#include <new>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace protuner::gs2 {

namespace {

/// Which read-path tier answered a clean-time lookup.  Process-global (all
/// databases share them): the counters live in the global registry under
/// protuner_db_lookups_total{tier=...}, resolved once on first use.
struct TierCounters {
  obs::Counter& exact;
  obs::Counter& memo;
  obs::Counter& kdtree;
};

TierCounters& tier_counters() {
  static TierCounters c{
      obs::Registry::global().counter(
          "protuner_db_lookups_total",
          "Database clean-time lookups by answering tier",
          {{"tier", "exact"}}),
      obs::Registry::global().counter("protuner_db_lookups_total", {},
                                      {{"tier", "memo"}}),
      obs::Registry::global().counter("protuner_db_lookups_total", {},
                                      {{"tier", "kdtree"}})};
  return c;
}

/// Admissible values of one parameter, decimated by `stride`.
std::vector<double> axis_values(const core::Parameter& p, std::size_t stride) {
  std::vector<double> all;
  switch (p.kind()) {
    case core::ParamKind::kDiscrete:
      all = p.values();
      break;
    case core::ParamKind::kInteger:
      for (double v = p.lower(); v <= p.upper(); v += 1.0) all.push_back(v);
      break;
    case core::ParamKind::kContinuous: {
      // Sample nine evenly spaced levels for continuous axes.
      constexpr int kLevels = 9;
      for (int i = 0; i < kLevels; ++i) {
        all.push_back(p.lower() + p.range() * i / (kLevels - 1));
      }
      break;
    }
  }
  return Database::decimate_axis(std::move(all), stride);
}

/// Largest lattice that gets a memo: 2^22 slots, 32 MiB of address space
/// of which only the pages a workload probes become resident.
constexpr std::size_t kMaxMemoSlots = std::size_t{1} << 22;

/// Number of admissible points of `space`, or 0 when it has a continuous
/// axis or more than kMaxMemoSlots points.
std::size_t lattice_size(const core::ParameterSpace& space) {
  double points = 1.0;
  for (const core::Parameter& p : space.params()) {
    if (p.kind() == core::ParamKind::kContinuous) return 0;
    points *= p.kind() == core::ParamKind::kInteger
                  ? p.range() + 1.0
                  : static_cast<double>(p.values().size());
  }
  return points <= static_cast<double>(kMaxMemoSlots)
             ? static_cast<std::size_t>(points)
             : 0;
}

/// Why (x, time) cannot be stored in a table over `dim` axes, or nullptr
/// when it can.  The grid's sorted axes need finite coordinates, and
/// interpolation needs finite, positive times.
const char* entry_error(const core::Point& x, std::size_t dim, double time) {
  if (x.size() != dim) return "arity mismatch";
  for (const double c : x) {
    if (!std::isfinite(c)) return "non-finite coordinate";
  }
  const bool good_time = time > 0.0 && std::isfinite(time);
  return good_time ? nullptr : "time is not finite and positive";
}

struct FreeDeleter {
  void operator()(void* p) const { std::free(p); }
};

using Neighbor = std::pair<double, double>;  ///< (dist2, time)

/// Keeps the k smallest (dist2, time) pairs offered so far in `best`,
/// ascending: the reference's selection order.  Pairs that compare equal
/// are identical in both fields, so which copy is kept cannot change the
/// result.
void offer(std::vector<Neighbor>& best, std::size_t k, Neighbor c) {
  if (best.size() == k) {
    if (!(c < best.back())) return;
    best.pop_back();
  }
  best.push_back(c);
  for (std::size_t i = best.size() - 1; i > 0 && c < best[i - 1]; --i) {
    std::swap(best[i], best[i - 1]);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// The index: the table as a product grid — each axis's sorted distinct
// values and the times in row-major order, which is std::map order — plus
// the lattice memo.  Built once, by the Database constructor, and immutable
// afterwards except for the memo slots, which are only touched through
// relaxed std::atomic_ref operations, so concurrent lookups need no locking.
//
// Exactness contract: the walk must select the brute-force reference's k
// nearest rows, in its (dist2, time) order, with bit-identical distances.
// A row's dist2 is therefore the left-to-right sum, from 0.0, of its
// per-axis terms ((x[d] - value) / range[d])², each computed with the
// reference's expression, and the walk stops only when every unscanned
// row's dist2 is provably larger than the k-th best (see nearest()).
struct Database::Index {
  Index(const core::ParameterSpace& space,
        const std::map<core::Point, double>& table);

  static constexpr std::size_t kNoRow =
      std::numeric_limits<std::size_t>::max();

  std::size_t dim = 0;
  std::vector<double> values;      ///< each axis's sorted values, in turn
  std::vector<std::size_t> begin;  ///< axis d is values[begin[d], begin[d+1])
  std::vector<double> range;       ///< per-axis range for normalisation
  std::vector<double> times;       ///< measured times, row-major

  // Lattice memo: slot s holds the bits of the clean time (stored or
  // interpolated) of the admissible point at mixed-radix lattice position
  // s, or 0 while it is empty.  Null when the space has a continuous axis
  // or its lattice exceeds kMaxMemoSlots.  Zero-filled by calloc, which
  // leaves freshly mapped pages untouched.  A clean time is a pure function
  // of this index, so racing fills of one slot store identical bits and
  // relaxed order suffices; a value whose bits are all zero (+0.0) is
  // simply recomputed on every lookup.
  std::unique_ptr<std::uint64_t[], FreeDeleter> memo;

  static constexpr std::size_t kNoSlot =
      std::numeric_limits<std::size_t>::max();

  /// Per-thread walk scratch, sized by scratch() for this index: it only
  /// grows, so a warm thread's lookups allocate nothing.
  struct Walk {
    std::vector<std::size_t> cell;  ///< per axis: lower_index of x
    std::vector<std::size_t> lo;    ///< per axis: scanned window, inclusive
    std::vector<std::size_t> hi;
    std::vector<double> least;      ///< per axis: smallest term
    std::vector<double> term;       ///< per value, laid out as `values`
    std::vector<Neighbor> best;     ///< k nearest so far, ascending
  };

  Walk& scratch(std::size_t k) const {
    thread_local Walk w;
    if (w.cell.size() < dim) {
      w.cell.resize(dim);
      w.lo.resize(dim);
      w.hi.resize(dim);
      w.least.resize(dim);
    }
    if (w.term.size() < values.size()) w.term.resize(values.size());
    w.best.reserve(k);
    return w;
  }

  std::span<const double> axis(std::size_t d) const {
    return {values.data() + begin[d], begin[d + 1] - begin[d]};
  }

  /// One search per axis: cell[d] = core::lower_index(axis(d), x[d]).
  /// Returns x's row when every axis holds x's coordinate, else kNoRow.
  std::size_t locate(const double* x, std::size_t* cell) const {
    std::size_t row = 0;
    bool hit = true;
    for (std::size_t d = 0; d < dim; ++d) {
      const std::span<const double> v = axis(d);
      const std::size_t i = core::lower_index(v, x[d]);
      cell[d] = i;
      hit = hit && i < v.size() && v[i] == x[d];
      row = row * v.size() + i;
    }
    return hit ? row : kNoRow;
  }

  /// Computes axis d's term for value j into the walk's scratch.
  void fill_term(const double* x, std::size_t d, std::size_t j,
                 Walk& w) const {
    const double diff = (x[d] - values[begin[d] + j]) / range[d];
    w.term[begin[d] + j] = diff * diff;
  }

  /// Offers every row of the window w.lo..w.hi (inclusive on each axis)
  /// to w.best: axis d's index loops here, the later axes recurse, and
  /// `partial` and `row` carry the sum and mixed-radix row of axes < d.
  void scan(Walk& w, std::size_t k, std::size_t d, double partial,
            std::size_t row) const {
    const double* t = &w.term[begin[d]];
    const std::size_t m = begin[d + 1] - begin[d];
    for (std::size_t j = w.lo[d]; j <= w.hi[d]; ++j) {
      if (d + 1 == dim) {
        offer(w.best, k, {partial + t[j], times[row * m + j]});
      } else {
        scan(w, k, d + 1, partial + t[j], row * m + j);
      }
    }
  }

  /// Leaves the k nearest rows of x, ascending, in w.best; w.cell holds
  /// locate()'s indices.  The window starts at the row nearest x (on each
  /// axis the nearer of the two values around x) and grows one value at a
  /// time, scanning each new slab once, until no unscanned row can rank.
  ///
  /// The bound: along each axis the term cannot fall as the index moves
  /// away from x — subtraction, division by a positive range and squaring
  /// are each monotone in floating point.  So a row outside the window,
  /// outside it on axis d, has a term there of at least axis d's nearest
  /// outside term, and on every other axis e at least least[e].  Rounded
  /// addition is monotone too, so the left-to-right sum of those terms is
  /// a lower bound on its dist2 in floating point, not just in exact
  /// arithmetic.  The walk stops once the k-th best dist2 is strictly
  /// below the minimum of that bound over the axes; on a tie an unscanned
  /// row could still win on its time, so it keeps going.  A NaN
  /// coordinate makes every bound NaN, and the walk scans the whole grid,
  /// as the reference does.
  void nearest(const double* x, std::size_t k, Walk& w) const {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (std::size_t d = 0; d < dim; ++d) {
      const std::size_t m = begin[d + 1] - begin[d];
      const double* t = &w.term[begin[d]];
      const std::size_t i = w.cell[d];
      std::size_t j = std::min(i, m - 1);
      fill_term(x, d, j, w);
      if (i > 0 && i < m) {
        fill_term(x, d, i - 1, w);
        if (t[i - 1] <= t[i]) j = i - 1;
      }
      if (j > 0) fill_term(x, d, j - 1, w);
      if (j + 1 < m) fill_term(x, d, j + 1, w);
      w.lo[d] = w.hi[d] = j;
      w.least[d] = t[j];
    }
    w.best.clear();
    scan(w, k, 0, 0.0, 0);
    for (;;) {
      std::size_t grow = dim;
      double bound = kInf;
      for (std::size_t d = 0; d < dim; ++d) {
        const std::size_t m = begin[d + 1] - begin[d];
        if (w.lo[d] == 0 && w.hi[d] + 1 == m) continue;  // axis exhausted
        const double* t = &w.term[begin[d]];
        const double out = std::min(w.lo[d] > 0 ? t[w.lo[d] - 1] : kInf,
                                    w.hi[d] + 1 < m ? t[w.hi[d] + 1] : kInf);
        double b = 0.0;
        for (std::size_t e = 0; e < dim; ++e) b += e == d ? out : w.least[e];
        if (grow == dim || b < bound) {
          bound = b;
          grow = d;
        }
      }
      if (grow == dim) return;  // every row scanned
      if (w.best.size() == k && w.best.back().first < bound) return;
      // Grow the axis that bounds the rest on its nearer side.
      const std::size_t d = grow;
      const std::size_t m = begin[d + 1] - begin[d];
      const double* t = &w.term[begin[d]];
      const bool down =
          w.lo[d] > 0 && (w.hi[d] + 1 == m || t[w.lo[d] - 1] <= t[w.hi[d] + 1]);
      const std::size_t j = down ? --w.lo[d] : ++w.hi[d];
      if (down && j > 0) fill_term(x, d, j - 1, w);
      if (!down && j + 1 < m) fill_term(x, d, j + 1, w);
      const std::size_t lo = w.lo[d];
      const std::size_t hi = w.hi[d];
      w.lo[d] = w.hi[d] = j;
      scan(w, k, 0, 0.0, 0);
      w.lo[d] = lo;
      w.hi[d] = hi;
    }
  }

  /// Memo slot of `x`, or kNoSlot when there is no memo or x is not an
  /// admissible point of `space`.
  std::size_t memo_slot(const core::ParameterSpace& space,
                        const core::Point& x) const {
    if (!memo || x.size() != dim) return kNoSlot;
    std::size_t slot = 0;
    for (std::size_t d = 0; d < dim; ++d) {
      const core::Parameter& p = space.param(d);
      const double c = x[d];
      if (p.kind() == core::ParamKind::kInteger) {
        if (!p.admissible(c)) return kNoSlot;
        slot = slot * static_cast<std::size_t>(p.range() + 1.0) +
               static_cast<std::size_t>(c - p.lower());
      } else {
        const std::vector<double>& v = p.values();
        const std::size_t i = p.lower_index(c);
        if (i == v.size() || v[i] != c) return kNoSlot;
        slot = slot * v.size() + i;
      }
    }
    return slot;
  }

  /// The memoised value of `slot`, or nullopt when it is empty or kNoSlot.
  std::optional<double> memo_get(std::size_t slot) const {
    if (slot == kNoSlot) return std::nullopt;
    const std::uint64_t bits =
        std::atomic_ref<std::uint64_t>(memo[slot]).load(
            std::memory_order_relaxed);
    if (bits == 0) return std::nullopt;
    return std::bit_cast<double>(bits);
  }

  void memo_put(std::size_t slot, double value) const {
    if (slot == kNoSlot) return;
    std::atomic_ref<std::uint64_t>(memo[slot]).store(
        std::bit_cast<std::uint64_t>(value), std::memory_order_relaxed);
  }
};

Database::Index::Index(const core::ParameterSpace& space,
                       const std::map<core::Point, double>& table)
    : dim(space.size()) {
  // Each axis's distinct values, kept sorted by insertion.  `cells` is the
  // product of their counts; a full product has exactly one row per cell,
  // so a table is rejected as soon as its cells outnumber its rows.
  std::vector<std::vector<double>> axes;
  for (const double c : table.begin()->first) axes.push_back({c});
  std::size_t cells = 1;
  times.reserve(table.size());
  for (const auto& [pt, time] : table) {
    for (std::size_t d = 0; d < dim; ++d) {
      std::vector<double>& v = axes[d];
      const std::size_t i = core::lower_index(v, pt[d]);
      if (i < v.size() && v[i] == pt[d]) continue;
      v.insert(v.begin() + static_cast<std::ptrdiff_t>(i), pt[d]);
      cells = cells / (v.size() - 1) * v.size();
      if (cells > table.size()) break;
    }
    if (cells > table.size()) break;
    times.push_back(time);
  }
  if (cells != table.size()) {
    throw std::invalid_argument(
        "database: table is not a full product grid");
  }
  begin.push_back(0);
  for (std::size_t d = 0; d < dim; ++d) {
    values.insert(values.end(), axes[d].begin(), axes[d].end());
    begin.push_back(values.size());
    range.push_back(space.param(d).range());
  }
  if (const std::size_t slots = lattice_size(space)) {
    memo.reset(
        static_cast<std::uint64_t*>(std::calloc(slots, sizeof(std::uint64_t))));
    if (!memo) throw std::bad_alloc();
  }
}

Database::Database(core::ParameterSpace space,
                   std::map<core::Point, double> table,
                   DatabaseOptions options)
    : space_(std::move(space)), options_(options), table_(std::move(table)) {
  assert(options_.interpolation_neighbors >= 1);
  assert(options_.idw_power > 0.0);
  if (table_.empty()) throw std::invalid_argument("database: empty table");
  for (const auto& [x, time] : table_) {
    if (const char* why = entry_error(x, space_.size(), time)) {
      throw std::invalid_argument(std::string("database: ") + why);
    }
  }
  index_ = std::make_unique<const Index>(space_, table_);
}

Database::Database(Database&&) noexcept = default;
Database& Database::operator=(Database&&) noexcept = default;
Database::~Database() = default;

Database Database::measure(const core::ParameterSpace& space,
                           const core::Landscape& source,
                           const DatabaseOptions& options,
                           const varmodel::NoiseModel* noise,
                           std::uint64_t seed) {
  std::map<core::Point, double> table;
  util::Rng rng(seed);

  std::vector<std::vector<double>> axes;
  axes.reserve(space.size());
  for (std::size_t i = 0; i < space.size(); ++i) {
    axes.push_back(axis_values(space.param(i), options.stride));
  }

  // Cartesian product over the decimated axes.
  core::Point x(space.size());
  std::vector<std::size_t> idx(space.size(), 0);
  for (;;) {
    for (std::size_t i = 0; i < space.size(); ++i) x[i] = axes[i][idx[i]];
    double t = source.clean_time(x);
    if (noise != nullptr) t += noise->sample(t, rng);
    table[x] = t;
    // Odometer increment.
    std::size_t axis = 0;
    while (axis < space.size() && ++idx[axis] == axes[axis].size()) {
      idx[axis] = 0;
      ++axis;
    }
    if (axis == space.size()) break;
  }
  return Database(space, std::move(table), options);
}

void Database::save(std::ostream& out) const {
  out.precision(std::numeric_limits<double>::max_digits10);
  for (const auto& [pt, val] : table_) {
    for (double c : pt) out << c << ',';
    out << val << '\n';
  }
}

Database Database::load(std::istream& in, core::ParameterSpace space,
                        DatabaseOptions options) {
  std::map<core::Point, double> table;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::istringstream row(line);
    std::vector<double> fields;
    std::string cell;
    while (std::getline(row, cell, ',')) {
      char* end = nullptr;
      const double v = std::strtod(cell.c_str(), &end);
      if (end == cell.c_str() || *end != '\0') {
        throw std::runtime_error("database load: bad number at line " +
                                 std::to_string(lineno));
      }
      fields.push_back(v);
    }
    const double time = fields.back();
    fields.pop_back();
    if (const char* why = entry_error(fields, space.size(), time)) {
      throw std::runtime_error(std::string("database load: ") + why +
                               " at line " + std::to_string(lineno));
    }
    table[std::move(fields)] = time;
  }
  if (table.empty()) throw std::runtime_error("database load: no entries");
  try {
    return Database(std::move(space), std::move(table), options);
  } catch (const std::invalid_argument& e) {  // not a full product grid
    throw std::runtime_error(std::string("database load: ") + e.what());
  }
}

std::optional<double> Database::exact(const core::Point& x) const {
  if (x.size() != index_->dim) return std::nullopt;
  Index::Walk& w = index_->scratch(0);
  const std::size_t row = index_->locate(x.data(), w.cell.data());
  if (row == Index::kNoRow) return std::nullopt;
  return index_->times[row];
}

double Database::normalized_distance2(const core::Point& a,
                                      const core::Point& b) const {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = (a[i] - b[i]) / space_.param(i).range();
    s += d * d;
  }
  return s;
}

double Database::interpolate_reference(const core::Point& x) const {
  assert(x.size() == space_.size());
  // k nearest entries by range-normalised distance: full scan + selection.
  const std::size_t k =
      std::min(options_.interpolation_neighbors, table_.size());
  assert(k >= 1);
  // Selection in per-thread scratch.  This keeps the k smallest
  // (dist2, value) pairs, ascending — the same multiset, in the same order,
  // as the historical "materialise all + partial_sort" implementation, so
  // the IDW accumulation is bit-identical to the old code while performing
  // no steady-state allocation.
  thread_local std::vector<Neighbor> nearest;
  nearest.clear();
  for (const auto& [pt, val] : table_) {
    offer(nearest, k, {normalized_distance2(x, pt), val});
  }
  return weighted_average(nearest);
}

double Database::weighted_average(std::span<const Neighbor> nearest) const {
  // Inverse-distance weighting (paper: "weighted average of its closest
  // neighbors performance values").
  double wsum = 0.0;
  double vsum = 0.0;
  for (const auto& [dist2, value] : nearest) {
    const double d = std::sqrt(dist2);
    const double w = 1.0 / std::pow(d + 1e-12, options_.idw_power);
    wsum += w;
    vsum += w * value;
  }
  return vsum / wsum;
}

std::vector<double> Database::decimate_axis(std::vector<double> all,
                                            std::size_t stride) {
  assert(stride >= 1);
  // Guard the empty axis up front: the keep-last step below dereferences
  // out.back(), which was UB on an empty axis (e.g. a discrete parameter
  // with no values in an assertion-free build).
  if (all.empty()) return all;
  std::vector<double> out;
  for (std::size_t i = 0; i < all.size(); i += stride) out.push_back(all[i]);
  // Always keep the last value so the grid spans the full range.
  if (out.back() != all.back()) out.push_back(all.back());
  return out;
}

double Database::interpolate_uncached(const core::Point& x) const {
  assert(x.size() == space_.size());
  const std::size_t k = std::min(options_.interpolation_neighbors, entries());
  Index::Walk& w = index_->scratch(k);
  index_->locate(x.data(), w.cell.data());
  index_->nearest(x.data(), k, w);
  return weighted_average(w.best);
}

double Database::clean_time(const core::Point& x) const {
  assert(x.size() == space_.size());
  TierCounters& tiers = tier_counters();
  const std::size_t slot = index_->memo_slot(space_, x);
  if (const std::optional<double> v = index_->memo_get(slot)) {
    tiers.memo.add();
    return *v;
  }
  // One search per axis finds the exact row or, failing that, the cell the
  // walk starts from.
  const std::size_t k = std::min(options_.interpolation_neighbors, entries());
  Index::Walk& w = index_->scratch(k);
  const std::size_t row = index_->locate(x.data(), w.cell.data());
  double value;
  if (row != Index::kNoRow) {
    tiers.exact.add();
    value = index_->times[row];
  } else {
    tiers.kdtree.add();
    index_->nearest(x.data(), k, w);
    value = weighted_average(w.best);
  }
  index_->memo_put(slot, value);
  return value;
}

}  // namespace protuner::gs2
