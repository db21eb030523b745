#include "gs2/database.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <limits>
#include <new>
#include <ostream>
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

/// SplitMix64-style avalanche over the raw coordinate bits, the exact
/// table's key.  It must agree with operator== on doubles: -0.0 is
/// canonicalised to +0.0 before hashing.  Never returns 0 (reserved as the
/// empty-slot sentinel).
std::uint64_t point_hash(const core::Point& x) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ x.size();
  for (const double c : x) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(c == 0.0 ? 0.0 : c);
    bits = (bits ^ (bits >> 30)) * 0xbf58476d1ce4e5b9ULL;
    bits = (bits ^ (bits >> 27)) * 0x94d049bb133111ebULL;
    h = (h ^ (bits ^ (bits >> 31))) * 0x9e3779b97f4a7c15ULL;
  }
  h ^= h >> 32;
  return h == 0 ? 1 : h;
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
/// when it can.  The k-d tree's split bounds need finite coordinates, and
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

}  // namespace

// ---------------------------------------------------------------------------
// The index: SoA storage of the table (tree order), a value-split k-d tree
// over it, an open-addressing exact-hit table and the lattice memo.  Built
// once, by the Database constructor, and immutable afterwards except for
// the memo slots, which are only touched through relaxed std::atomic_ref
// operations, so concurrent lookups need no locking.
//
// Exactness contract: the k-NN selection and the per-neighbour distances
// must reproduce the brute-force reference bit-for-bit.  Distances are
// therefore computed with the reference's exact expression
// ((x[d] - p[d]) / range[d], squared and summed left-to-right), neighbours
// are ranked by the reference's (dist2, value) pair order (partial_sort on
// pairs), and subtree pruning is strict (>) so equal-distance candidates
// with smaller values are never skipped.  Any tree shape whose split bounds
// are true bounds satisfies it.
struct Database::Index {
  Index(const core::ParameterSpace& space,
        const std::map<core::Point, double>& table);

  std::size_t dim = 0;
  std::size_t n = 0;
  std::vector<double> pts;    ///< row-major coordinates, tree order
  std::vector<double> vals;   ///< measured times, tree order
  std::vector<double> range;  ///< per-axis range for normalisation

  struct Node {
    std::uint32_t begin = 0, end = 0;  ///< row range (leaf scan)
    std::uint32_t left = 0, right = 0;
    std::int32_t axis = -1;  ///< -1 marks a leaf
    double lo_split = 0.0;   ///< max coordinate of the left subtree on axis
    double hi_split = 0.0;   ///< min coordinate of the right subtree on axis
  };
  std::vector<Node> nodes;

  // Exact-hit table: hash -> tree-order row, linear probing, hash 0 empty.
  std::vector<std::uint64_t> slot_hash;
  std::vector<std::uint32_t> slot_row;

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

  bool row_equals(std::uint32_t r, const core::Point& x) const {
    const double* p = &pts[static_cast<std::size_t>(r) * dim];
    for (std::size_t d = 0; d < dim; ++d) {
      if (p[d] != x[d]) return false;
    }
    return true;
  }

  const double* exact_find(std::uint64_t h, const core::Point& x) const {
    if (x.size() != dim) return nullptr;
    const std::size_t mask = slot_hash.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      if (slot_hash[i] == 0) return nullptr;
      if (slot_hash[i] == h && row_equals(slot_row[i], x)) {
        return &vals[slot_row[i]];
      }
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

  double dist2(std::uint32_t r, const double* x) const {
    const double* p = &pts[static_cast<std::size_t>(r) * dim];
    double s = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      const double diff = (x[d] - p[d]) / range[d];
      s += diff * diff;
    }
    return s;
  }

  /// Heap insert shared by the leaf scans and the reference scan: keeps the
  /// k smallest (dist2, value) pairs (max-heap under pair ordering — top is
  /// the current worst neighbour).
  static void heap_push(std::vector<std::pair<double, double>>& heap,
                        std::size_t k, std::pair<double, double> cand) {
    if (heap.size() < k) {
      heap.push_back(cand);
      std::push_heap(heap.begin(), heap.end());
    } else if (cand < heap.front()) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = cand;
      std::push_heap(heap.begin(), heap.end());
    }
  }

  /// Collects the k nearest rows as (dist2, value) pairs into `heap`
  /// (a max-heap under pair ordering — top is the current worst neighbour).
  void knn(const double* x, std::size_t k,
           std::vector<std::pair<double, double>>& heap) const {
    heap.clear();
    search(0, x, k, heap);
  }

  void search(std::uint32_t id, const double* x, std::size_t k,
              std::vector<std::pair<double, double>>& heap) const {
    const Node& nd = nodes[id];
    if (nd.axis < 0) {
      for (std::uint32_t r = nd.begin; r < nd.end; ++r) {
        heap_push(heap, k, {dist2(r, x), vals[r]});
      }
      return;
    }
    const double xa = x[static_cast<std::size_t>(nd.axis)];
    const double ra = range[static_cast<std::size_t>(nd.axis)];
    // Lower bound on the normalised dist2 of any point in each subtree,
    // computed with the same expression shape as dist2() so the bound is
    // conservative in floating point as well.
    double lb = 0.0;
    if (xa > nd.lo_split) {
      const double diff = (xa - nd.lo_split) / ra;
      lb = diff * diff;
    }
    double rb = 0.0;
    if (xa < nd.hi_split) {
      const double diff = (xa - nd.hi_split) / ra;
      rb = diff * diff;
    }
    const std::uint32_t first = lb <= rb ? nd.left : nd.right;
    const std::uint32_t second = lb <= rb ? nd.right : nd.left;
    const double first_bound = lb <= rb ? lb : rb;
    const double second_bound = lb <= rb ? rb : lb;
    // Prune only on strict >: an equal-bound subtree can still hold a point
    // at the same distance with a smaller value (reference tie-break).
    if (heap.size() < k || first_bound <= heap.front().first) {
      search(first, x, k, heap);
    }
    if (heap.size() < k || second_bound <= heap.front().first) {
      search(second, x, k, heap);
    }
  }

  /// Recursive value-split builder over rows[b, e); returns the node id.
  static std::uint32_t build_node(Index& idx, std::vector<std::uint32_t>& rows,
                                  const std::vector<double>& rp,
                                  std::uint32_t b, std::uint32_t e);
};

std::uint32_t Database::Index::build_node(Index& idx,
                                          std::vector<std::uint32_t>& rows,
                                          const std::vector<double>& rp,
                                          std::uint32_t b, std::uint32_t e) {
  constexpr std::uint32_t kLeafSize = 8;
  const std::uint32_t id = static_cast<std::uint32_t>(idx.nodes.size());
  idx.nodes.emplace_back();
  idx.nodes[id].begin = b;
  idx.nodes[id].end = e;
  if (e - b <= kLeafSize) return id;  // leaf (axis stays -1)

  // Split on the axis with the widest normalised spread.
  const std::size_t dim = idx.dim;
  std::size_t axis = 0;
  double best_spread = -1.0;
  for (std::size_t d = 0; d < dim; ++d) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (std::uint32_t i = b; i < e; ++i) {
      const double c = rp[static_cast<std::size_t>(rows[i]) * dim + d];
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    const double spread = (hi - lo) / idx.range[d];
    if (spread > best_spread) {
      best_spread = spread;
      axis = d;
    }
  }
  if (best_spread <= 0.0) return id;  // all points coincide: keep as leaf

  // Split by value at the median coordinate m, with every row equal to m on
  // one side, so lo_split < hi_split.  A split by index can leave copies of
  // m on both sides; a query at m then bounds both children by 0 and
  // prunes neither, which on a decimated grid (every coordinate value
  // shared by hundreds of rows) is most queries.
  const auto coord = [&](std::uint32_t r) {
    return rp[static_cast<std::size_t>(r) * dim + axis];
  };
  const std::uint32_t mid = b + (e - b) / 2;
  std::nth_element(
      rows.begin() + b, rows.begin() + mid, rows.begin() + e,
      [&](std::uint32_t r, std::uint32_t q) { return coord(r) < coord(q); });
  const double m = coord(rows[mid]);
  // nth_element leaves rows[b, mid) <= m <= rows(mid, e): count the rows
  // strictly below m on the left and strictly above it on the right.
  std::uint32_t below = 0;
  double below_max = -std::numeric_limits<double>::infinity();
  for (std::uint32_t i = b; i < mid; ++i) {
    const double c = coord(rows[i]);
    below += c < m ? 1 : 0;
    below_max = c < m ? std::max(below_max, c) : below_max;
  }
  std::uint32_t above = 0;
  double above_min = std::numeric_limits<double>::infinity();
  for (std::uint32_t i = mid + 1; i < e; ++i) {
    const double c = coord(rows[i]);
    above += c > m ? 1 : 0;
    above_min = c > m ? std::min(above_min, c) : above_min;
  }
  // The ties join whichever side leaves the split closer to even, never
  // emptying a side, and only that side's half of the rows is reordered.
  const std::uint32_t half = mid - b;
  const std::uint32_t ties = e - b - below - above;
  const bool ties_left =
      below == 0 || (above > 0 && below + ties - half < half - below);
  if (ties_left) {
    std::partition(rows.begin() + mid + 1, rows.begin() + e,
                   [&](std::uint32_t r) { return coord(r) == m; });
  } else {
    std::partition(rows.begin() + b, rows.begin() + mid,
                   [&](std::uint32_t r) { return coord(r) < m; });
  }
  const std::uint32_t cut = ties_left ? e - above : b + below;
  idx.nodes[id].axis = static_cast<std::int32_t>(axis);
  idx.nodes[id].lo_split = ties_left ? m : below_max;
  idx.nodes[id].hi_split = ties_left ? above_min : m;
  const std::uint32_t left = build_node(idx, rows, rp, b, cut);
  const std::uint32_t right = build_node(idx, rows, rp, cut, e);
  idx.nodes[id].left = left;
  idx.nodes[id].right = right;
  return id;
}

Database::Index::Index(const core::ParameterSpace& space,
                       const std::map<core::Point, double>& table)
    : dim(space.size()), n(table.size()) {
  range.reserve(dim);
  for (std::size_t d = 0; d < dim; ++d) range.push_back(space.param(d).range());
  // Raw AoS copy in table order, then a row permutation from the recursive
  // value splits, then the final SoA-per-row fill.
  std::vector<double> rp(n * dim);
  std::vector<double> rv(n);
  std::size_t r = 0;
  for (const auto& [pt, val] : table) {
    std::copy(pt.begin(), pt.end(), rp.begin() + r * dim);
    rv[r] = val;
    ++r;
  }
  std::vector<std::uint32_t> rows(n);
  for (std::uint32_t i = 0; i < n; ++i) rows[i] = i;
  build_node(*this, rows, rp, 0, static_cast<std::uint32_t>(n));
  pts.resize(n * dim);
  vals.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t src = rows[i];
    std::copy(rp.begin() + src * dim, rp.begin() + (src + 1) * dim,
              pts.begin() + i * dim);
    vals[i] = rv[src];
  }
  // Exact-hit table at load factor <= 0.5.
  std::size_t cap = 16;
  while (cap < n * 2) cap *= 2;
  slot_hash.assign(cap, 0);
  slot_row.assign(cap, 0);
  const std::size_t mask = cap - 1;
  core::Point tmp(dim);
  for (std::size_t i = 0; i < n; ++i) {
    std::copy(pts.begin() + i * dim, pts.begin() + (i + 1) * dim,
              tmp.begin());
    const std::uint64_t h = point_hash(tmp);
    std::size_t pos = h & mask;
    while (slot_hash[pos] != 0) pos = (pos + 1) & mask;
    slot_hash[pos] = h;
    slot_row[pos] = static_cast<std::uint32_t>(i);
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
  return Database(std::move(space), std::move(table), options);
}

std::optional<double> Database::exact(const core::Point& x) const {
  if (const double* v = index_->exact_find(point_hash(x), x)) return *v;
  return std::nullopt;
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
  // Bounded-heap selection in per-thread scratch.  This keeps the k
  // smallest (dist2, value) pairs — the same multiset the historical
  // "materialise all + partial_sort" implementation selected (pairs that
  // compare equal are identical in both fields, so any representative is
  // interchangeable) — then sorts them ascending, making the IDW
  // accumulation below bit-identical to the old code while performing no
  // steady-state allocation.
  thread_local std::vector<std::pair<double, double>> nearest;
  nearest.clear();
  for (const auto& [pt, val] : table_) {
    Index::heap_push(nearest, k, {normalized_distance2(x, pt), val});
  }
  std::sort(nearest.begin(), nearest.end());

  // Inverse-distance weighting (paper: "weighted average of its closest
  // neighbors performance values").
  double wsum = 0.0;
  double vsum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double d = std::sqrt(nearest[i].first);
    const double w = 1.0 / std::pow(d + 1e-12, options_.idw_power);
    wsum += w;
    vsum += w * nearest[i].second;
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
  return interpolate_indexed(*index_, x);
}

double Database::interpolate_indexed(const Index& idx,
                                     const core::Point& x) const {
  const std::size_t k = std::min(options_.interpolation_neighbors, idx.n);
  assert(k >= 1);
  // Per-thread scratch: the neighbour heap is reused across lookups so the
  // steady-state interpolation path performs no allocation.
  thread_local std::vector<std::pair<double, double>> heap;
  idx.knn(x.data(), k, heap);
  // Ascending (dist2, value) order — the exact order the reference's
  // partial_sort produces — so the IDW accumulation is bit-identical.
  std::sort(heap.begin(), heap.end());
  double wsum = 0.0;
  double vsum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double d = std::sqrt(heap[i].first);
    const double w = 1.0 / std::pow(d + 1e-12, options_.idw_power);
    wsum += w;
    vsum += w * heap[i].second;
  }
  return vsum / wsum;
}

double Database::clean_time(const core::Point& x) const {
  assert(x.size() == space_.size());
  TierCounters& tiers = tier_counters();
  const std::size_t slot = index_->memo_slot(space_, x);
  if (const std::optional<double> v = index_->memo_get(slot)) {
    tiers.memo.add();
    return *v;
  }
  double value;
  if (const double* v = index_->exact_find(point_hash(x), x)) {
    tiers.exact.add();
    value = *v;
  } else {
    tiers.kdtree.add();
    value = interpolate_indexed(*index_, x);
  }
  index_->memo_put(slot, value);
  return value;
}

}  // namespace protuner::gs2
