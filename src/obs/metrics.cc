#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace protuner::obs {

namespace {

/// Escapes a label value for the Prometheus text format.
std::string escape_label(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Escapes HELP text: the text format continues to end-of-line, so embedded
/// newlines (and the backslashes that would fake escapes) must be encoded
/// or the exposition stops parsing at the first multi-line help string.
std::string escape_help(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void write_labels(std::ostream& out, const Labels& labels,
                  std::string_view extra_key = {},
                  std::string_view extra_value = {}) {
  if (labels.empty() && extra_key.empty()) return;
  out << '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out << ',';
    out << k << "=\"" << escape_label(v) << '"';
    first = false;
  }
  if (!extra_key.empty()) {
    if (!first) out << ',';
    out << extra_key << "=\"" << extra_value << '"';
  }
  out << '}';
}

}  // namespace

// ----------------------------------------------------------------- Cells

std::size_t detail::assign_metric_cell() {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kMetricCells;
}

// ----------------------------------------------------------------- Histogram

std::size_t Histogram::bucket_index(double v) {
  // Everything that is not a positive value reaching the first finite
  // bucket — zero, negatives, denormal dust, NaN — lands in the underflow
  // bucket.  Telemetry must never throw or branch into UB on a weird input.
  if (!(v >= std::ldexp(1.0, kMinExp))) return 0;
  // ilogb is exact for normal doubles: floor(log2(v)).  +inf clamps below.
  int e = std::ilogb(v);
  if (e > kMaxExp) e = kMaxExp;
  return static_cast<std::size_t>(e - kMinExp + 1);
}

double Histogram::bucket_lower(std::size_t i) {
  if (i == 0) return 0.0;
  return std::ldexp(1.0, kMinExp + static_cast<int>(i) - 1);
}

double Histogram::bucket_upper(std::size_t i) {
  if (i + 1 >= kBucketCount) {
    return std::numeric_limits<double>::infinity();
  }
  return std::ldexp(1.0, kMinExp + static_cast<int>(i));
}

void Histogram::merge(const HistogramSnapshot& s) {
  Cell& cell = cells_[detail::this_thread_cell()];
  const std::size_t n = std::min(s.counts.size(), kBucketCount);
  for (std::size_t i = 0; i < n; ++i) {
    if (s.counts[i] != 0) {
      cell.buckets[i].fetch_add(s.counts[i], std::memory_order_relaxed);
    }
  }
  if (s.max > 0.0) {
    raise_max(cell.max_bits, std::bit_cast<std::uint64_t>(s.max));
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.counts.assign(kBucketCount, 0);
  std::uint64_t max_bits = 0;
  for (const Cell& cell : cells_) {
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      s.counts[i] += cell.buckets[i].load(std::memory_order_relaxed);
    }
    max_bits =
        std::max(max_bits, cell.max_bits.load(std::memory_order_relaxed));
  }
  s.max = std::bit_cast<double>(max_bits);
  // The total is the bucket sum, so quantile targets are always consistent
  // with the counts they are computed from, even racing with record().
  std::uint64_t total = 0;
  for (const std::uint64_t c : s.counts) total += c;
  s.count = total;
  return s;
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0 || counts.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double before = static_cast<double>(cum);
    cum += counts[i];
    if (static_cast<double>(cum) >= target) {
      const double lo = Histogram::bucket_lower(i);
      // The open-ended buckets interpolate toward the observed max, which
      // is exact, instead of toward an infinite (or zero-width) edge.
      double hi = Histogram::bucket_upper(i);
      if (!std::isfinite(hi) || hi > max) hi = std::max(max, lo);
      const double frac =
          counts[i] == 0
              ? 0.0
              : (target - before) / static_cast<double>(counts[i]);
      const double v = lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
      return max > 0.0 ? std::min(v, max) : v;
    }
  }
  return max;
}

// ------------------------------------------------------------------ Registry

Registry& Registry::global() {
  // Leaked singleton: instrument references taken from the global registry
  // must stay valid through static destruction (servers record from
  // worker threads that may outlive main's locals).
  static Registry* g = new Registry();
  return *g;
}

Registry::Entry* Registry::find_or_create(InstrumentKind kind,
                                          std::string_view name,
                                          std::string_view help,
                                          Labels labels, bool allow_create,
                                          bool* created) {
  if (created != nullptr) *created = false;
  const std::scoped_lock lock(mutex_);
  for (const auto& e : entries_) {
    if (e->name == name && e->labels == labels) {
      if (e->kind != kind) {
        throw std::logic_error("obs::Registry: instrument '" +
                               std::string(name) +
                               "' already registered with a different kind");
      }
      return e.get();
    }
  }
  if (!allow_create) return nullptr;
  if (created != nullptr) *created = true;
  auto e = std::make_unique<Entry>();
  e->kind = kind;
  e->name = std::string(name);
  e->help = std::string(help);
  e->labels = std::move(labels);
  switch (kind) {
    case InstrumentKind::kCounter:
      e->counter = std::make_unique<Counter>();
      break;
    case InstrumentKind::kGauge:
      e->gauge = std::make_unique<Gauge>();
      break;
    case InstrumentKind::kHistogram:
      e->histogram = std::make_unique<Histogram>();
      break;
  }
  entries_.push_back(std::move(e));
  return entries_.back().get();
}

Counter& Registry::counter(std::string_view name, std::string_view help,
                           Labels labels) {
  return *find_or_create(InstrumentKind::kCounter, name, help,
                         std::move(labels))
              ->counter;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help,
                       Labels labels) {
  return *find_or_create(InstrumentKind::kGauge, name, help,
                         std::move(labels))
              ->gauge;
}

Histogram& Registry::histogram(std::string_view name, std::string_view help,
                               Labels labels) {
  return *find_or_create(InstrumentKind::kHistogram, name, help,
                         std::move(labels))
              ->histogram;
}

std::size_t Registry::size() const {
  const std::scoped_lock lock(mutex_);
  return entries_.size();
}

InstrumentSnapshot Registry::snapshot_entry(const Entry& e) const {
  InstrumentSnapshot s;
  s.kind = e.kind;
  s.name = e.name;
  s.help = e.help;
  s.labels = e.labels;
  switch (e.kind) {
    case InstrumentKind::kCounter:
      s.value = static_cast<double>(e.counter->value());
      break;
    case InstrumentKind::kGauge:
      s.value = static_cast<double>(e.gauge->value());
      break;
    case InstrumentKind::kHistogram:
      s.hist = e.histogram->snapshot();
      s.value = static_cast<double>(s.hist.count);
      break;
  }
  return s;
}

// snapshot() collects bare Entry pointers under the registry mutex and
// does all the per-instrument work (histogram bucket reads, string copies,
// allocation) after releasing it.  Entries are registered once and never
// erased, and the vector holds them by unique_ptr, so a collected pointer
// stays valid without the lock — a slow exporter therefore never holds the
// registry against threads registering new instruments.  Per-value reads
// are atomic on the instruments themselves, so the aggregate is merely
// per-instrument (not cross-instrument) consistent — which was already
// true under the lock, since recording never took it.
RegistrySnapshot Registry::snapshot() const {
  std::vector<const Entry*> entries;
  {
    const std::scoped_lock lock(mutex_);
    entries.reserve(entries_.size());
    for (const auto& e : entries_) entries.push_back(e.get());
  }
  RegistrySnapshot out;
  out.instruments.reserve(entries.size());
  for (const Entry* e : entries) out.instruments.push_back(snapshot_entry(*e));
  return out;
}

Registry::MergeResult Registry::merge_from(const RegistrySnapshot& snap,
                                           const Labels& extra_labels,
                                           std::size_t max_new_series) {
  // Exact double thresholds for the integer casts below: 2^64 and 2^63.
  constexpr double kCounterLimit = 18446744073709551616.0;
  constexpr double kGaugeLimit = 9223372036854775808.0;
  MergeResult res;
  for (const InstrumentSnapshot& s : snap.instruments) {
    // Snapshots arrive off the wire: a name or label key outside the
    // Prometheus identifier charset would be rendered verbatim into the
    // /metrics exposition (injecting fake lines), and a hostile double
    // would hit an out-of-range integer cast (UB).  Validate before any
    // series is resolved so a rejected instrument cannot mint one.
    bool ident_ok = is_valid_metric_name(s.name);
    for (const auto& [k, v] : s.labels) {
      ident_ok = ident_ok && is_valid_label_key(k);
    }
    if (!ident_ok) {
      ++res.dropped;
      continue;
    }
    std::int64_t gauge_level = 0;
    if (s.kind == InstrumentKind::kCounter &&
        (!(s.value >= 0.0) || s.value >= kCounterLimit)) {
      ++res.dropped;  // NaN, negative, or beyond uint64: the cast is UB
      continue;
    }
    if (s.kind == InstrumentKind::kGauge) {
      if (std::isnan(s.value)) {
        ++res.dropped;
        continue;
      }
      gauge_level = s.value >= kGaugeLimit
                        ? std::numeric_limits<std::int64_t>::max()
                    : s.value < -kGaugeLimit
                        ? std::numeric_limits<std::int64_t>::min()
                        : static_cast<std::int64_t>(s.value);
    }
    Labels labels = s.labels;
    // Never stack a duplicate key: a series that already carries one of the
    // extra labels (it was itself merged from a push once) keeps its
    // original identity.  Appending would mint a new series per merge and
    // an echo loop (a pusher snapshotting a registry it is merged into)
    // would grow the registry without bound.
    for (const auto& [key, value] : extra_labels) {
      bool present = false;
      for (const auto& have : labels) present = present || have.first == key;
      if (!present) labels.emplace_back(key, value);
    }
    bool created = false;
    Entry* e = find_or_create(s.kind, s.name, s.help, std::move(labels),
                              res.created < max_new_series, &created);
    if (e == nullptr) {
      ++res.dropped;  // would mint a series past the caller's budget
      continue;
    }
    res.created += created ? 1 : 0;
    switch (s.kind) {
      case InstrumentKind::kCounter:
        e->counter->add(static_cast<std::uint64_t>(s.value));
        break;
      case InstrumentKind::kGauge:
        e->gauge->set(gauge_level);
        break;
      case InstrumentKind::kHistogram:
        if (std::isfinite(s.hist.max)) {
          e->histogram->merge(s.hist);
        } else {
          // A pushed +inf max would win every CAS-max forever; keep the
          // bucket counts and let the real observed maxima stand.
          HistogramSnapshot clean = s.hist;
          clean.max = 0.0;
          e->histogram->merge(clean);
        }
        break;
    }
    ++res.merged;
  }
  return res;
}

bool is_valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
        c == ':') {
      continue;
    }
    if (i > 0 && c >= '0' && c <= '9') continue;
    return false;
  }
  return true;
}

bool is_valid_label_key(std::string_view key) {
  if (key.empty()) return false;
  for (std::size_t i = 0; i < key.size(); ++i) {
    const char c = key[i];
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_') {
      continue;
    }
    if (i > 0 && c >= '0' && c <= '9') continue;
    return false;
  }
  return true;
}

const InstrumentSnapshot* RegistrySnapshot::find(
    std::string_view name, std::string_view session) const {
  for (const InstrumentSnapshot& s : instruments) {
    if (s.name != name) continue;
    if (session.empty()) return &s;
    for (const auto& [k, v] : s.labels) {
      if (k == "session" && v == session) return &s;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------- Prometheus

void render_prometheus(std::ostream& out, const RegistrySnapshot& snapshot) {
  // The text format wants all series of one metric family grouped under a
  // single TYPE line: order by name (stable, so label sets keep insertion
  // order within a family).
  std::vector<const InstrumentSnapshot*> ordered;
  ordered.reserve(snapshot.instruments.size());
  for (const InstrumentSnapshot& s : snapshot.instruments) {
    ordered.push_back(&s);
  }
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const InstrumentSnapshot* a,
                      const InstrumentSnapshot* b) { return a->name < b->name; });

  const auto* last_named = static_cast<const InstrumentSnapshot*>(nullptr);
  for (const InstrumentSnapshot* s : ordered) {
    const bool new_family = last_named == nullptr || last_named->name != s->name;
    last_named = s;
    switch (s->kind) {
      case InstrumentKind::kCounter:
        if (new_family) {
          if (!s->help.empty()) {
            out << "# HELP " << s->name << ' ' << escape_help(s->help) << '\n';
          }
          out << "# TYPE " << s->name << " counter\n";
        }
        out << s->name;
        write_labels(out, s->labels);
        out << ' ' << static_cast<std::uint64_t>(s->value) << '\n';
        break;
      case InstrumentKind::kGauge:
        if (new_family) {
          if (!s->help.empty()) {
            out << "# HELP " << s->name << ' ' << escape_help(s->help) << '\n';
          }
          out << "# TYPE " << s->name << " gauge\n";
        }
        out << s->name;
        write_labels(out, s->labels);
        out << ' ' << static_cast<std::int64_t>(s->value) << '\n';
        break;
      case InstrumentKind::kHistogram: {
        if (new_family) {
          if (!s->help.empty()) {
            out << "# HELP " << s->name << ' ' << escape_help(s->help) << '\n';
          }
          out << "# TYPE " << s->name << " summary\n";
        }
        static constexpr std::pair<const char*, double> kQuantiles[] = {
            {"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}, {"0.999", 0.999}};
        for (const auto& [label, q] : kQuantiles) {
          out << s->name;
          write_labels(out, s->labels, "quantile", label);
          out << ' ' << s->hist.quantile(q) << '\n';
        }
        out << s->name << "_count";
        write_labels(out, s->labels);
        out << ' ' << s->hist.count << '\n';
        out << s->name << "_max";
        write_labels(out, s->labels);
        out << ' ' << s->hist.max << '\n';
        break;
      }
    }
  }
}

}  // namespace protuner::obs
