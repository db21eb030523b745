// Heavy-tail-aware metrics registry.
//
// The paper's core statistical argument (§4–5) is that heavy-tailed
// performance variability breaks mean-based reasoning: a Pareto tail with
// α <= 2 has infinite variance, so "average latency" is a number that never
// converges.  The telemetry layer takes that seriously:
//
//   * Histograms are *log-bucketed*: one bucket per power of two from 2^-16
//     up to 2^40 (sized for nanosecond timings up to ~18 minutes, and equally
//     happy with simulated seconds), so a Pareto tail is resolved across
//     ~17 orders of magnitude instead of clipped into an overflow bin.
//   * Snapshots expose p50/p90/p99/p99.9/max — deliberately *no mean*.
//
// Hot-path contract: recording on a pre-registered instrument is a relaxed
// atomic add (histograms add one bucket increment and a CAS-max) with zero
// heap allocation, so the PR 4 zero-allocation steady-state step survives
// instrumentation.  Counters and histograms are split into kMetricCells
// cache-line-aligned cells; a thread picks its cell once, on its first
// record, and afterwards writes only that cell, so recording threads do not
// bounce one line between cores.  On a 4-vCPU x86 guest (perf preset,
// BENCH_obs.json) an add costs ~9 ns alone and ~25 ns of CPU with 4 threads
// on one counter (~100 ns with a single shared cell); a histogram record
// ~12 ns alone and ~22 ns at 4 threads (~70 ns single-cell).  Registry
// lookup/creation takes a mutex and allocates; it happens once, at
// component construction, never per step.
//
// Thread model: any number of threads may record concurrently with any
// number of snapshot readers.  Cells go round-robin in the order threads
// first record, so up to kMetricCells threads that start together get a
// cell each; beyond that threads share cells, which costs contention but
// never exactness, since every write is an atomic RMW.  value() and snapshot()
// fold the cells (counts add, max is the max over cells).  All reads are
// relaxed: a snapshot taken mid-record may be a few events behind, which is
// fine for telemetry (and race-free under TSan), and consecutive snapshots
// never run backwards because every cell only grows.  Gauges keep a single
// cell: set() is last-writer-wins, which a fold could not express.
#pragma once

#include <array>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace protuner::obs {

/// Label key/value pairs qualifying an instrument (Prometheus-style), e.g.
/// {{"session", "gs2"}} or {{"tier", "exact"}}.  Order-sensitive: the same
/// pairs in a different order name a different instrument.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {

/// Cells per Counter and Histogram.  It must cover the reproduction
/// engine's 4 benchmark workers plus the thread that drives them; the
/// static_asserts after each class cap what it costs.
inline constexpr std::size_t kMetricCells = 8;
/// Cell alignment, so two cells never share a cache line.
inline constexpr std::size_t kCacheLine = 64;

/// Hands out cells round-robin; the slow path of this_thread_cell().
std::size_t assign_metric_cell();

/// The calling thread's cell, assigned on its first record and then fixed.
inline std::size_t this_thread_cell() {
  thread_local std::size_t cell = kMetricCells;  // kMetricCells = unassigned
  if (cell == kMetricCells) [[unlikely]] cell = assign_metric_cell();
  return cell;
}

}  // namespace detail

/// Monotonic event count.  add() is the hot path: one relaxed fetch_add on
/// the calling thread's cell.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    cells_[detail::this_thread_cell()].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  /// Sum over the cells.
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Cell& c : cells_) {
      total += c.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(detail::kCacheLine) Cell {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Cell, detail::kMetricCells> cells_{};
};
// One line per cell: a session's ~5 counters stay at a few KiB.
static_assert(sizeof(Counter) <= 512, "Counter outgrew its memory budget");

/// Instantaneous level (queue depth, active sessions).
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void sub(std::int64_t n = 1) {
    value_.fetch_sub(n, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Point-in-time copy of a histogram, with quantile estimation.  Quantiles
/// are interpolated linearly inside the containing power-of-two bucket, so
/// the relative error is bounded by the bucket ratio (2x) and is typically
/// far smaller; max is exact.
struct HistogramSnapshot {
  std::vector<std::uint64_t> counts;  ///< one per bucket, underflow first
  std::uint64_t count = 0;            ///< total recorded observations
  double max = 0.0;                   ///< exact largest recorded value

  /// Value below which a fraction q of the observations fall; 0 when empty.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }
  double p999() const { return quantile(0.999); }
};

/// Log-bucketed histogram: bucket i >= 1 covers [2^(kMinExp+i-1),
/// 2^(kMinExp+i)); bucket 0 collects everything below 2^kMinExp (including
/// zero, negatives and NaN — telemetry never throws); the last bucket is
/// open-ended.  There is intentionally no sum and therefore no mean: under
/// the paper's infinite-variance noise a mean is a lie, quantiles are not.
class Histogram {
 public:
  static constexpr int kMinExp = -16;
  static constexpr int kMaxExp = 40;
  /// Underflow bucket + one per exponent in [kMinExp, kMaxExp].
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(kMaxExp - kMinExp + 2);

  /// Hot path: one relaxed add plus a relaxed CAS-max, both on the calling
  /// thread's cell (the total count is derived from the bucket sum at
  /// snapshot time).  No allocation.
  void record(double v) {
    Cell& cell = cells_[detail::this_thread_cell()];
    cell.buckets[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    const double clamped = v > 0.0 ? v : 0.0;
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(clamped));
    __builtin_memcpy(&bits, &clamped, sizeof(bits));
    raise_max(cell.max_bits, bits);
  }

  /// Folds a snapshot (typically shipped from another process) into the
  /// calling thread's cell: bucket-wise relaxed adds plus a CAS max-of-max,
  /// so merging is associative, commutative and safe concurrently with
  /// record().
  void merge(const HistogramSnapshot& s);

  /// Bucket that record(v) lands in.  Exposed for tests and exporters.
  static std::size_t bucket_index(double v);
  /// Inclusive lower edge of bucket i (0 for the underflow bucket).
  static double bucket_lower(std::size_t i);
  /// Exclusive upper edge of bucket i (+inf for the last bucket).
  static double bucket_upper(std::size_t i);

  /// Folds the cells: bucket counts add, max is the max over cells.
  HistogramSnapshot snapshot() const;

 private:
  struct alignas(detail::kCacheLine) Cell {
    std::array<std::atomic<std::uint64_t>, kBucketCount> buckets{};
    std::atomic<std::uint64_t> max_bits{0};
  };

  /// Non-negative doubles order like their bit patterns, so the running
  /// max is a CAS loop over raw bits.
  static void raise_max(std::atomic<std::uint64_t>& max_bits,
                        std::uint64_t bits) {
    std::uint64_t cur = max_bits.load(std::memory_order_relaxed);
    while (bits > cur && !max_bits.compare_exchange_weak(
                             cur, bits, std::memory_order_relaxed)) {
    }
  }

  std::array<Cell, detail::kMetricCells> cells_{};
};
// 58 buckets plus the max round up to 8 lines per cell: a session's 4
// histograms stay at 16 KiB.
static_assert(sizeof(Histogram) <= 4096,
              "Histogram outgrew its memory budget");

enum class InstrumentKind { kCounter, kGauge, kHistogram };

/// One instrument's identity plus a point-in-time value.
struct InstrumentSnapshot {
  InstrumentKind kind = InstrumentKind::kCounter;
  std::string name;
  std::string help;
  Labels labels;
  double value = 0.0;       ///< counter / gauge reading
  HistogramSnapshot hist;   ///< populated for kHistogram
};

struct RegistrySnapshot {
  std::vector<InstrumentSnapshot> instruments;

  /// First instrument with this exact name (and, when given, label value for
  /// key "session"); nullptr when absent.  The per-session read path: take
  /// one Registry::snapshot() and look each session's series up here.
  const InstrumentSnapshot* find(std::string_view name,
                                 std::string_view session = {}) const;
};

/// Process-wide (or component-owned) instrument registry.  counter() /
/// gauge() / histogram() return a reference that stays valid for the
/// registry's lifetime; calling them again with the same (name, labels)
/// returns the same instrument, and a kind mismatch throws std::logic_error.
/// These lookups lock and allocate — do them once at construction time and
/// keep the reference; record through the reference on the hot path.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The default process-wide registry every built-in subsystem records
  /// into (database tiers, clean-time cache, round engine, harmony
  /// servers).  Never destroyed, so instrument references taken
  /// from it are valid for the process lifetime.
  static Registry& global();

  Counter& counter(std::string_view name, std::string_view help = {},
                   Labels labels = {});
  Gauge& gauge(std::string_view name, std::string_view help = {},
               Labels labels = {});
  Histogram& histogram(std::string_view name, std::string_view help = {},
                       Labels labels = {});

  std::size_t size() const;

  /// Point-in-time copy of every instrument.  Not stop-the-world: the
  /// registry mutex is held only to collect the (pointer-stable) entry
  /// list; bucket reads, string copies and allocation happen after
  /// release, so a slow consumer never blocks instrument registration.
  RegistrySnapshot snapshot() const;

  /// Outcome of one merge_from call: how many instruments folded in, how
  /// many new series the call minted, and how many it refused.
  struct MergeResult {
    std::size_t merged = 0;   ///< instruments folded into the registry
    std::size_t created = 0;  ///< series newly created by this call
    std::size_t dropped = 0;  ///< rejected: bad identifier/value, or budget
  };

  /// Folds another registry's snapshot into this one — the server-side half
  /// of the client telemetry push (DESIGN.md §15).  Each incoming instrument
  /// is resolved (created on first sight) under its own labels plus
  /// `extra_labels` — e.g. {{"client", "3"}} — then merged: counters add
  /// their value (senders ship deltas, so repeated pushes accumulate),
  /// gauges take the incoming level, histograms merge bucket-wise with
  /// max-of-max.  An extra-label key the incoming series already carries is
  /// not appended again, so re-merging an already-merged series can never
  /// mint new identities (guards against echo loops when a pusher snapshots
  /// a registry it is merged into).  Merging is associative and commutative
  /// across senders and safe concurrently with local recording.  A kind
  /// mismatch with an already-registered instrument throws std::logic_error.
  ///
  /// Snapshots may arrive off the wire, so nothing in one is trusted:
  /// an instrument whose name or label keys fall outside the Prometheus
  /// identifier charset is dropped (it would be emitted verbatim by
  /// render_prometheus), a counter delta that is NaN, negative, or beyond
  /// uint64 range is dropped (the cast would be UB), a gauge level is
  /// clamped into int64 range (NaN dropped), and a non-finite histogram max
  /// is ignored.  `max_new_series` bounds how many series this one call may
  /// create — merging into existing series is never limited; an instrument
  /// that would mint a series past the budget counts as dropped.
  MergeResult merge_from(const RegistrySnapshot& snap,
                         const Labels& extra_labels = {},
                         std::size_t max_new_series = SIZE_MAX);

 private:
  struct Entry {
    InstrumentKind kind;
    std::string name;
    std::string help;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// Resolves (name, labels) to its entry.  With `allow_create` false a
  /// missing entry returns nullptr instead of being minted; `created`
  /// (optional) reports whether this call registered the entry.
  Entry* find_or_create(InstrumentKind kind, std::string_view name,
                        std::string_view help, Labels labels,
                        bool allow_create = true, bool* created = nullptr);
  InstrumentSnapshot snapshot_entry(const Entry& e) const;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;  ///< pointer-stable storage
};

/// True when `name` matches the Prometheus metric-name charset
/// [a-zA-Z_:][a-zA-Z0-9_:]*.  Anything else written verbatim into the text
/// exposition (spaces, quotes, newlines) corrupts it or injects fake series.
bool is_valid_metric_name(std::string_view name);

/// True when `key` matches the Prometheus label-key charset
/// [a-zA-Z_][a-zA-Z0-9_]* (no colons, those are reserved for metric names).
bool is_valid_label_key(std::string_view key);

/// Renders a snapshot in the Prometheus v0 text exposition format
/// (text/plain; version=0.0.4).  Counters and gauges map directly;
/// histograms are exposed as summaries — quantile series for
/// 0.5/0.9/0.99/0.999 plus `<name>_count` and `<name>_max` — because the
/// registry refuses to carry a mean (`_sum`) for heavy-tailed data.
void render_prometheus(std::ostream& out, const RegistrySnapshot& snapshot);

}  // namespace protuner::obs
