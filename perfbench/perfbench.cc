// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>] [--source-id <id>]
//
// Four closed-loop workloads, one per process:
//   repro_fig10        the Fig. 10 grid (PRO, min-of-K, K = 1..5,
//                      rho in {0, 0.2, 0.4}, 6 ranks, 100 steps) on 4
//                      repetition workers
//   repro_wide         random / anneal / genetic at 64 ranks, rho = 0.2, on
//                      4 repetition workers, memo cache cold per batch
//   serve_wire         net::NetServer loop + 3 net::HarmonyClient threads,
//                      one 16-rank PRO session per connection
//   serve_hot_session  one 256-rank PRO session driven in-process by 4
//                      threads through harmony::Server::fetch_into / report
//
// A run is a sequence of batches.  Each batch does its own set-up (database
// measure and index build; session hosting and server bind on the serving
// workloads), which is timed as one setup_s sample, then a fixed amount of
// timed work.  Batches repeat until --seconds of timed work have run; every
// end-to-end metric is the median over batches.  Afterwards the outputs are
// checked (see verify()), and the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
// and traced batches over the same inputs (plus, on the repro workloads, a
// one-worker batch) and reports the per-layer split: spans recorded by the
// decorators in trace.h around each layer's public calls, and the counters
// and histograms the program exports through obs::Registry.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cmath>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "build_info.h"
#include "cluster/simulated_cluster.h"
#include "core/session.h"
#include "core/strategy_spec.h"
#include "exp/parallel_runner.h"
#include "gs2/database.h"
#include "gs2/surface.h"
#include "harmony/server.h"
#include "harmony/session_manager.h"
#include "net/client.h"
#include "net/net_server.h"
#include "obs/fast_clock.h"
#include "obs/metrics.h"
#include "trace.h"
#include "util/rng.h"
#include "varmodel/noise_model.h"
#include "varmodel/pareto_noise.h"

namespace perfbench {
namespace {

namespace cluster = protuner::cluster;
namespace exp = protuner::exp;
namespace gs2 = protuner::gs2;
namespace harmony = protuner::harmony;
namespace net = protuner::net;
namespace obs = protuner::obs;

using Clock = std::chrono::steady_clock;

constexpr std::size_t kSteps = 100;  // the paper's horizon, every workload
constexpr double kAlpha = 1.7;
constexpr unsigned kWorkers = 4;
constexpr const char* kServeSpec = "pro:k=2";
constexpr double kServeRho = 0.2;
// The repro workloads recompute every kRecheckEvery-th repetition serially.
constexpr std::size_t kRecheckEvery = 32;

// ------------------------------------------------------------- utilities

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of sorted samples.
double sorted_quantile(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Sum of every counter instrument called `name` (optionally only those
/// carrying label key == value).
double counter_sum(const obs::RegistrySnapshot& snap, std::string_view name,
                   std::string_view key = {}, std::string_view value = {}) {
  double sum = 0.0;
  for (const auto& inst : snap.instruments) {
    if (inst.kind != obs::InstrumentKind::kCounter || inst.name != name) {
      continue;
    }
    if (!key.empty()) {
      bool match = false;
      for (const auto& [k, v] : inst.labels) match |= (k == key && v == value);
      if (!match) continue;
    }
    sum += inst.value;
  }
  return sum;
}

/// Bucket-wise sum of obs:: log2 histograms (accurate to within 2x).
struct HistSum {
  obs::HistogramSnapshot snap;
  void add(const obs::RegistrySnapshot& reg, std::string_view name) {
    for (const auto& inst : reg.instruments) {
      if (inst.kind != obs::InstrumentKind::kHistogram || inst.name != name) {
        continue;
      }
      if (snap.counts.size() < inst.hist.counts.size()) {
        snap.counts.resize(inst.hist.counts.size(), 0);
      }
      for (std::size_t i = 0; i < inst.hist.counts.size(); ++i) {
        snap.counts[i] += inst.hist.counts[i];
      }
      snap.count += inst.hist.count;
      snap.max = std::max(snap.max, inst.hist.max);
    }
  }
  double q(double quant) const { return snap.quantile(quant); }
};

// ---------------------------------------------------------- batch record

/// One batch: its set-up sample, the timed work and what it produced.
struct Batch {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t sessions = 0;
  std::uint64_t ops = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_us;  ///< exact per-call samples
  /// Bit patterns of the batch's results (per-cell NTT means, or per-session
  /// Total_Time): equal inputs must give equal fingerprints in every mode.
  std::vector<std::uint64_t> fingerprint;
};

/// Counters and histograms read from obs::Registry around traced batches.
struct RegistryTotals {
  double lookups_exact = 0, lookups_memo = 0, lookups_kdtree = 0;
  double replay = 0, recompute = 0, rounds = 0;
  double protocol_errors = 0, deadline_expiries = 0, discarded = 0;
  double bytes = 0, decode_errors = 0;
  HistSum fetch_ns, report_ns, round_wall_ns, fetch_wire_ns, report_wire_ns;
};

/// Adds the change of the process-global instruments between two snapshots
/// (database lookup tiers, clean-time cache outcomes, engine rounds).
void add_global_deltas(RegistryTotals& t, const obs::RegistrySnapshot& before,
                       const obs::RegistrySnapshot& after) {
  const auto delta = [&](std::string_view name, std::string_view key = {},
                         std::string_view value = {}) {
    return counter_sum(after, name, key, value) -
           counter_sum(before, name, key, value);
  };
  t.lookups_exact += delta("protuner_db_lookups_total", "tier", "exact");
  t.lookups_memo += delta("protuner_db_lookups_total", "tier", "memo");
  t.lookups_kdtree += delta("protuner_db_lookups_total", "tier", "kdtree");
  t.replay += delta("protuner_clean_cache_total", "result", "replay");
  t.recompute += delta("protuner_clean_cache_total", "result", "recompute");
  t.rounds += delta("protuner_rounds_total");
}

std::mutex g_error_mutex;
std::string g_first_error;

void note_error(const std::string& what) {
  const std::lock_guard lock(g_error_mutex);
  if (g_first_error.empty()) g_first_error = what;
}

std::shared_ptr<gs2::Database> build_database(
    const core::ParameterSpace& space) {
  const gs2::Gs2Surface surface;
  auto db = std::make_shared<gs2::Database>(
      gs2::Database::measure(space, surface, {}));
  // Build the k-d tree index now (it is built lazily on the first lookup);
  // the uncached path leaves the memo cache and the tier counters alone.
  (void)db->interpolate_uncached(space.center());
  return db;
}

// ------------------------------------------------------------- workloads

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string shape() const = 0;
  virtual bool repro() const = 0;
  /// Threads that drive the layers (the capacity busy fractions divide by).
  virtual unsigned load_threads() const = 0;
  virtual Batch run_batch(std::uint64_t seed, unsigned workers,
                          bool traced) = 0;
  /// Recomputes recorded results by an independent path; returns the number
  /// of mismatches and adds the number of checks to `checked`.
  virtual std::uint64_t verify(std::uint64_t& checked) = 0;

  RegistryTotals totals;  ///< accumulated over traced batches only
};

// The simulation engine: repetitions of core::run_session over a
// cluster::SimulatedCluster on one shared gs2::Database, spread over
// exp::run_repetitions workers.
class Repro final : public Workload {
 public:
  struct Cell {
    std::string spec;
    double rho;
  };

  Repro(std::string name, std::vector<Cell> cells, std::size_t ranks,
        long reps_per_cell)
      : name_(std::move(name)),
        cells_(std::move(cells)),
        ranks_(ranks),
        reps_(reps_per_cell),
        space_(gs2::gs2_space()) {
    for (const Cell& c : cells_) {
      if (c.rho == 0.0) {
        noise_.push_back(std::make_shared<varmodel::NoNoise>());
      } else {
        noise_.push_back(
            std::make_shared<varmodel::ParetoNoise>(c.rho, kAlpha));
      }
    }
  }

  std::string shape() const override {
    std::ostringstream s;
    s << "{\"sessions_per_batch\": " << cells_.size() * reps_
      << ", \"cells\": " << cells_.size() << ", \"reps_per_cell\": " << reps_
      << ", \"ranks\": " << ranks_ << ", \"steps\": " << kSteps
      << ", \"workers\": " << kWorkers
      << ", \"loop\": \"closed: each worker starts the next repetition when "
         "its previous one ends\", \"strategies\": [";
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      s << (i ? ", " : "") << "\"" << cells_[i].spec << " rho=" << cells_[i].rho
        << "\"";
    }
    s << "]}";
    return s.str();
  }
  bool repro() const override { return true; }
  unsigned load_threads() const override { return kWorkers; }

  Batch run_batch(std::uint64_t seed, unsigned workers, bool traced) override {
    Batch b;
    db_.reset();  // the previous batch's database is not this one's set-up
    const auto s0 = Clock::now();
    db_ = build_database(space_);
    b.setup_s = seconds_since(s0);

    const std::size_t n = cells_.size() * static_cast<std::size_t>(reps_);
    std::vector<std::vector<RepOut>> out(cells_.size());
    const obs::RegistrySnapshot before =
        traced ? obs::Registry::global().snapshot() : obs::RegistrySnapshot{};

    const double c0 = process_cpu_s();
    const auto w0 = Clock::now();
    for (std::size_t ci = 0; ci < cells_.size(); ++ci) {
      out[ci] = exp::run_repetitions(
          reps_, mix(seed, ci),
          [&](const exp::RepContext& ctx) { return rep(ci, ctx.seed, traced); },
          workers);
    }
    b.wall_s = seconds_since(w0);
    b.cpu_s = process_cpu_s() - c0;

    if (traced) {
      add_global_deltas(totals, before, obs::Registry::global().snapshot());
    }

    b.sessions = n;
    b.ops = n * kSteps;
    b.attempted = n;
    b.latency_us.reserve(n);
    std::size_t g = 0;
    for (std::size_t ci = 0; ci < cells_.size(); ++ci) {
      double acc = 0.0;
      for (const RepOut& o : out[ci]) {
        b.failed += o.failed ? 1 : 0;
        b.latency_us.push_back(o.wall_us);
        acc += o.ntt;
        if (!traced && workers == kWorkers && g % kRecheckEvery == 0) {
          recorded_.push_back({ci, o});
        }
        ++g;
      }
      b.fingerprint.push_back(bits_of(acc / static_cast<double>(reps_)));
    }
    return b;
  }

  std::uint64_t verify(std::uint64_t& checked) override {
    std::uint64_t bad = 0;
    for (const auto& [ci, o] : recorded_) {
      const RepOut again = rep(ci, o.seed, false);
      ++checked;
      if (o.failed || again.failed || bits_of(again.ntt) != bits_of(o.ntt) ||
          bits_of(again.total) != bits_of(o.total) ||
          bits_of(again.clean) != bits_of(o.clean)) {
        ++bad;
      }
    }
    return bad;
  }

 private:
  struct RepOut {
    double ntt = 0.0;
    double total = 0.0;
    double clean = 0.0;
    double wall_us = 0.0;
    std::uint64_t seed = 0;
    bool failed = false;
  };

  RepOut rep(std::size_t ci, std::uint64_t seed, bool traced) const {
    RepOut o;
    o.seed = seed;
    const auto t0 = Clock::now();
    try {
      const core::SessionOptions so{.steps = kSteps, .record_series = false};
      const std::uint64_t strategy_seed = mix(seed, 0x5eed);
      core::SessionResult r;
      if (traced) {
        const SpanScope rep_span(kRep);
        cluster::SimulatedCluster machine(
            std::make_shared<TracedLandscape>(db_),
            std::make_shared<TracedNoise>(noise_[ci]),
            {.ranks = ranks_, .seed = seed});
        TracedEvaluator eval(machine);
        TracedStrategy strategy(
            core::make_strategy(cells_[ci].spec, space_, strategy_seed));
        const SpanScope session_span(kSession);
        r = core::run_session(strategy, eval, so);
      } else {
        cluster::SimulatedCluster machine(db_, noise_[ci],
                                          {.ranks = ranks_, .seed = seed});
        const auto strategy =
            core::make_strategy(cells_[ci].spec, space_, strategy_seed);
        r = core::run_session(*strategy, machine, so);
      }
      o.ntt = r.ntt;
      o.total = r.total_time;
      o.clean = r.best_clean;
    } catch (const std::exception& ex) {
      o.failed = true;
      note_error(std::string(name_) + " rep: " + ex.what());
    }
    o.wall_us = 1e6 * seconds_since(t0);
    return o;
  }

  std::string name_;
  std::vector<Cell> cells_;
  std::size_t ranks_;
  long reps_;
  core::ParameterSpace space_;
  std::vector<std::shared_ptr<const varmodel::NoiseModel>> noise_;
  std::shared_ptr<gs2::Database> db_;
  std::vector<std::pair<std::size_t, RepOut>> recorded_;
};

// The serving tier: PRO sessions hosted by harmony::Server, driven either
// over the wire (net::NetServer + net::HarmonyClient) or in-process by
// several threads sharing one hot session.  Every rank reports f(x) from the
// database plus Pareto noise from its own seeded stream, so a session's
// Total_Time is reproducible by core::run_session.
class Serve final : public Workload {
 public:
  Serve(bool wire, unsigned threads, std::size_t ranks,
        std::size_t sessions_per_batch)
      : wire_(wire),
        threads_(threads),
        ranks_(ranks),
        sessions_(sessions_per_batch),
        space_(gs2::gs2_space()),
        noise_(std::make_shared<varmodel::ParetoNoise>(kServeRho, kAlpha)) {
    // Latency buffers are sized and touched here, before any timed phase.
    const std::size_t per_thread =
        wire_ ? sessions_ * kSteps * ranks_ * 2
              : sessions_ * kSteps * (ranks_ / threads_) * 2;
    lat_ns_.resize(threads_);
    for (auto& v : lat_ns_) v.assign(per_thread, 0.0f);
  }

  std::string shape() const override {
    std::ostringstream s;
    if (wire_) {
      s << "{\"sessions_per_batch\": " << sessions_ * threads_
        << ", \"ranks\": " << ranks_ << ", \"steps\": " << kSteps
        << ", \"client_threads\": " << threads_
        << ", \"connections\": " << threads_
        << ", \"server_threads\": 1, \"strategy\": \"" << kServeSpec
        << "\", \"loop\": \"closed, phase-locked: each client fetches every "
           "rank, then reports every rank, one call in flight per "
           "connection\"}";
    } else {
      s << "{\"sessions_per_batch\": " << sessions_ << ", \"ranks\": "
        << ranks_ << ", \"steps\": " << kSteps
        << ", \"worker_threads\": " << threads_
        << ", \"connections\": 0, \"strategy\": \"" << kServeSpec
        << "\", \"loop\": \"closed, phase-locked: each worker fetches its "
        << ranks_ / threads_
        << " ranks, then reports them; the last report closes the round\"}";
    }
    return s.str();
  }
  bool repro() const override { return false; }
  unsigned load_threads() const override { return threads_; }

  Batch run_batch(std::uint64_t seed, unsigned /*workers*/,
                  bool traced) override {
    Batch b;
    db_.reset();  // the previous batch's database is not this one's set-up
    const auto s0 = Clock::now();
    db_ = build_database(space_);
    auto registry = std::make_unique<obs::Registry>();
    std::unique_ptr<harmony::SessionManager> manager;
    std::unique_ptr<net::NetServer> server;
    std::thread loop;
    if (wire_) {
      manager = std::make_unique<harmony::SessionManager>();
      server = std::make_unique<net::NetServer>(
          *manager, net::NetServerOptions{.metrics = registry.get()});
      loop = std::thread([&] { server->run(); });
    }
    b.setup_s = seconds_since(s0);

    const std::size_t count = wire_ ? sessions_ * threads_ : sessions_;
    std::vector<SessionRec> recs(count);
    for (std::size_t i = 0; i < count; ++i) recs[i].seed = mix(seed, i);

    const obs::RegistrySnapshot before =
        traced ? obs::Registry::global().snapshot() : obs::RegistrySnapshot{};
    const double c0 = process_cpu_s();
    const auto w0 = Clock::now();
    if (wire_) {
      run_wire(recs, *manager, server->port(), *registry, traced);
    } else {
      run_hot(recs, *registry, traced);
    }
    b.wall_s = seconds_since(w0);
    b.cpu_s = process_cpu_s() - c0;

    if (wire_) {
      server->stop();
      loop.join();
    }
    const obs::RegistrySnapshot snap = registry->snapshot();
    if (traced) {
      add_global_deltas(totals, before, obs::Registry::global().snapshot());
      totals.rounds += counter_sum(snap, "protuner_rounds_total");
      totals.protocol_errors +=
          counter_sum(snap, "protuner_harmony_protocol_errors_total");
      totals.deadline_expiries +=
          counter_sum(snap, "protuner_harmony_deadline_expiries_total");
      totals.discarded +=
          counter_sum(snap, "protuner_harmony_discarded_reports_total");
      totals.bytes += counter_sum(snap, "protuner_net_bytes_in_total") +
                      counter_sum(snap, "protuner_net_bytes_out_total");
      totals.decode_errors +=
          counter_sum(snap, "protuner_net_decode_errors_total");
      totals.fetch_ns.add(snap, "protuner_harmony_fetch_ns");
      totals.report_ns.add(snap, "protuner_harmony_report_ns");
      totals.round_wall_ns.add(snap, "protuner_harmony_round_wall_ns");
      totals.fetch_wire_ns.add(snap, "protuner_net_fetch_wire_ns");
      totals.report_wire_ns.add(snap, "protuner_net_report_wire_ns");
    }

    b.sessions = count;
    for (const SessionRec& r : recs) {
      b.failed += r.failed;
      b.fingerprint.push_back(bits_of(r.total));
    }
    // Imputed slots, late (discarded) reports, protocol violations and
    // undecodable frames are failed operations too.
    b.failed += static_cast<std::uint64_t>(
        counter_sum(snap, "protuner_imputed_slots_total") +
        counter_sum(snap, "protuner_harmony_discarded_reports_total") +
        counter_sum(snap, "protuner_harmony_protocol_errors_total") +
        counter_sum(snap, "protuner_net_decode_errors_total"));
    for (std::size_t t = 0; t < threads_; ++t) {
      for (std::size_t i = 0; i < lat_used_[t]; ++i) {
        b.latency_us.push_back(1e-3 * lat_ns_[t][i]);
      }
      b.ops += lat_used_[t];
    }
    b.attempted = count * kSteps * ranks_ * 2;
    if (!traced) recorded_.insert(recorded_.end(), recs.begin(), recs.end());
    return b;
  }

  std::uint64_t verify(std::uint64_t& checked) override {
    std::uint64_t bad = 0;
    for (const SessionRec& r : recorded_) {
      ++checked;
      if (r.failed || !r.sum_ok || r.rounds != kSteps) {
        ++bad;
        continue;
      }
      try {
        cluster::SimulatedCluster machine(db_, noise_,
                                          {.ranks = ranks_, .seed = r.seed});
        const auto strategy = core::make_strategy(kServeSpec, space_, r.seed);
        const core::SessionResult replay = core::run_session(
            *strategy, machine, {.steps = kSteps, .record_series = false});
        if (bits_of(replay.total_time) != bits_of(r.total)) ++bad;
      } catch (const std::exception& ex) {
        note_error(std::string("replay: ") + ex.what());
        ++bad;
      }
    }
    return bad;
  }

 private:
  struct SessionRec {
    std::uint64_t seed = 0;
    double total = 0.0;
    bool sum_ok = false;
    std::size_t rounds = 0;
    std::uint64_t failed = 0;
  };

  /// What the ranks measure: f(x) from the database plus Pareto noise,
  /// through the tracing decorators in a traced batch.
  struct Machine {
    core::LandscapePtr land;
    std::shared_ptr<const varmodel::NoiseModel> noise;
    double measure(const core::Point& x, util::Rng& rng) const {
      return noise->observe(land->clean_time(x), rng);
    }
  };

  Machine machine(bool traced) const {
    if (!traced) return {db_, noise_};
    return {std::make_shared<TracedLandscape>(db_),
            std::make_shared<TracedNoise>(noise_)};
  }

  /// Times one fetch or report call into *lat++ (ns), inside a span of
  /// `layer` when traced.
  template <typename Call>
  static void timed(bool traced, Layer layer, float*& lat, Call&& call) {
    const auto t0 = obs::LatencyClock::now();
    if (traced) {
      const SpanScope s(layer);
      call();
    } else {
      call();
    }
    *lat++ = static_cast<float>(
        obs::LatencyClock::to_ns(obs::LatencyClock::now() - t0));
  }

  static void close_record(const harmony::Server& srv, SessionRec& rec) {
    rec.total = srv.total_time();
    rec.rounds = srv.rounds_completed();
    double sum = 0.0;
    for (const double c : srv.step_costs()) sum += c;
    rec.sum_ok = bits_of(sum) == bits_of(rec.total);
  }

  core::TuningStrategyPtr strategy(std::uint64_t seed, bool traced) const {
    auto s = core::make_strategy(kServeSpec, space_, seed);
    if (traced) return std::make_unique<TracedStrategy>(std::move(s));
    return s;
  }

  void run_wire(std::vector<SessionRec>& recs, harmony::SessionManager& manager,
                std::uint16_t port, obs::Registry& registry, bool traced) {
    lat_used_.assign(threads_, 0);
    const Machine m = machine(traced);
    std::vector<std::thread> clients;
    for (unsigned t = 0; t < threads_; ++t) {
      clients.emplace_back([&, t] {
        float* lat = lat_ns_[t].data();
        std::vector<core::Point> cfg(ranks_);
        for (std::size_t k = 0; k < sessions_; ++k) {
          SessionRec& rec = recs[t * sessions_ + k];
          try {
            const std::string name =
                "c" + std::to_string(t) + "s" + std::to_string(k);
            harmony::ServerOptions so;
            so.metrics = &registry;
            const auto srv =
                manager.create(name, strategy(rec.seed, traced), ranks_, so);
            net::HarmonyClient client({.port = port});
            client.attach(name, 0);
            auto rngs = util::Rng(rec.seed).split_streams(ranks_);
            for (std::size_t round = 0; round < kSteps; ++round) {
              for (std::uint32_t r = 0; r < ranks_; ++r) {
                timed(traced, kFetch, lat, [&] { client.fetch_into(r, cfg[r]); });
              }
              for (std::uint32_t r = 0; r < ranks_; ++r) {
                const double time = m.measure(cfg[r], rngs[r]);
                timed(traced, kReport, lat, [&] { client.report(r, time); });
              }
            }
            client.detach(0);
            close_record(*srv, rec);
          } catch (const std::exception& ex) {
            note_error(std::string("serve_wire client: ") + ex.what());
            rec.failed = 1;
          }
        }
        lat_used_[t] = static_cast<std::size_t>(lat - lat_ns_[t].data());
      });
    }
    for (auto& c : clients) c.join();
  }

  void run_hot(std::vector<SessionRec>& recs, obs::Registry& registry,
               bool traced) {
    lat_used_.assign(threads_, 0);
    const Machine m = machine(traced);
    std::unique_ptr<harmony::Server> srv;
    std::vector<util::Rng> rngs;
    std::size_t next = 0;
    bool setup_failed = false;
    // Runs on one thread while the others wait: closes the finished
    // session's record and opens the next session.
    auto advance = [&]() noexcept {
      try {
        if (srv) close_record(*srv, recs[next - 1]);
        srv.reset();
        if (next < recs.size()) {
          harmony::ServerOptions so;
          so.metrics = &registry;
          srv = std::make_unique<harmony::Server>(
              strategy(recs[next].seed, traced), ranks_, so);
          rngs = util::Rng(recs[next].seed).split_streams(ranks_);
          ++next;
        }
      } catch (const std::exception& ex) {
        note_error(std::string("serve_hot_session: ") + ex.what());
        setup_failed = true;
      }
    };
    advance();
    std::barrier sync(static_cast<std::ptrdiff_t>(threads_), advance);
    const std::size_t per = ranks_ / threads_;
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads_; ++t) {
      workers.emplace_back([&, t] {
        float* lat = lat_ns_[t].data();
        std::vector<core::Point> cfg(per);
        const std::size_t lo = t * per;
        for (std::size_t k = 0; k < recs.size() && !setup_failed; ++k) {
          try {
            harmony::Server& server = *srv;
            for (std::size_t round = 0; round < kSteps; ++round) {
              for (std::size_t i = 0; i < per; ++i) {
                timed(traced, kFetch, lat,
                      [&] { server.fetch_into(lo + i, cfg[i]); });
              }
              for (std::size_t i = 0; i < per; ++i) {
                const double time = m.measure(cfg[i], rngs[lo + i]);
                timed(traced, kReport, lat,
                      [&] { server.report(lo + i, time); });
              }
            }
          } catch (const std::exception& ex) {
            // The other workers would wait forever for this one's ranks;
            // the watchdog ends the run.
            note_error(std::string("serve_hot_session worker: ") + ex.what());
            recs[k].failed = 1;
          }
          sync.arrive_and_wait();
        }
        lat_used_[t] = static_cast<std::size_t>(lat - lat_ns_[t].data());
      });
    }
    for (auto& w : workers) w.join();
  }

  bool wire_;
  unsigned threads_;
  std::size_t ranks_;
  std::size_t sessions_;
  core::ParameterSpace space_;
  std::shared_ptr<const varmodel::NoiseModel> noise_;
  std::shared_ptr<gs2::Database> db_;
  std::vector<std::vector<float>> lat_ns_;
  std::vector<std::size_t> lat_used_;
  std::vector<SessionRec> recorded_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "repro_fig10") {
    std::vector<Repro::Cell> cells;
    for (const double rho : {0.0, 0.2, 0.4}) {
      for (int k = 1; k <= 5; ++k) {
        cells.push_back({"pro:refresh=0,k=" + std::to_string(k), rho});
      }
    }
    return std::make_unique<Repro>(name, std::move(cells), 6, 1000);
  }
  if (name == "repro_wide") {
    return std::make_unique<Repro>(
        name,
        std::vector<Repro::Cell>{
            {"random", 0.2}, {"anneal", 0.2}, {"genetic", 0.2}},
        64, 32);
  }
  if (name == "serve_wire") return std::make_unique<Serve>(true, 3, 16, 2);
  if (name == "serve_hot_session") {
    return std::make_unique<Serve>(false, 4, 256, 4);
  }
  return nullptr;
}

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

void print_result(const Outcome& o) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              o.correct ? "true" : "false",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed));
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct LatencySummary {
  double p50 = 0.0, p99 = 0.0, tail = 0.0, tail_q = 0.0;
  std::size_t samples = 0, pools = 0;
};

/// Exact latency quantiles.  Consecutive batches' samples are pooled until
/// a pool holds kMinPool of them (so p99 has >= 100 samples beyond it); each
/// pool is sorted and its quantiles taken; the run reports the median over
/// pools.  Samples are dropped once pooled, so memory stays flat.
class LatencyPools {
 public:
  static constexpr std::size_t kMinPool = 10000;

  void add(const std::vector<double>& samples) {
    pool_.insert(pool_.end(), samples.begin(), samples.end());
    if (pool_.size() >= kMinPool) flush();
  }

  LatencySummary finish() {
    if (p50_.empty()) flush();
    LatencySummary s;
    s.p50 = median(p50_);
    s.p99 = median(p99_);
    s.tail = median(tail_);
    s.tail_q = median(tail_q_);
    s.samples = samples_;
    s.pools = p50_.size();
    return s;
  }

 private:
  void flush() {
    const std::size_t n = pool_.size();
    if (n == 0) return;
    std::sort(pool_.begin(), pool_.end());
    samples_ += n;
    p50_.push_back(sorted_quantile(pool_, 0.50));
    p99_.push_back(sorted_quantile(pool_, 0.99));
    // The highest percentile that still has at least ten samples beyond it.
    const double q = n > 10 ? 1.0 - 10.0 / static_cast<double>(n) : 0.5;
    tail_q_.push_back(q);
    tail_.push_back(sorted_quantile(pool_, q));
    pool_.clear();
  }

  std::vector<double> pool_;
  std::vector<double> p50_, p99_, tail_, tail_q_;
  std::size_t samples_ = 0;
};

std::string read_first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_provenance(const std::string& workload, std::uint64_t seed,
                      const std::string& source_id) {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  bool hypervisor = false;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("flags", 0) == 0 &&
        line.find(" hypervisor") != std::string::npos) {
      hypervisor = true;
    }
  }
  // Threads per core: the size of cpu0's sibling list ("0" or "0-1" / "0,4").
  const std::string siblings = read_first_line(
      "/sys/devices/system/cpu/cpu0/topology/thread_siblings_list");
  int threads_per_core = siblings.empty() ? 0 : 1;
  if (const auto dash = siblings.find('-'); dash != std::string::npos) {
    threads_per_core =
        std::atoi(siblings.c_str() + dash + 1) - std::atoi(siblings.c_str()) + 1;
  } else {
    threads_per_core +=
        static_cast<int>(std::count(siblings.begin(), siblings.end(), ','));
  }
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  const std::string flags = PERFBENCH_CXX_FLAGS;
  const bool suspect = std::string(PERFBENCH_BUILD_TYPE) == "Debug" ||
                       flags.find("-fsanitize") != std::string::npos ||
                       flags.find("-O0") != std::string::npos;
  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %llu, \"source\": \"%s\", "
      "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", \"ndebug\": %s, "
      "\"debug_or_sanitizer_build\": %s, \"compiler\": \"%s\", "
      "\"nproc\": %ld, \"threads_per_core\": %d, \"hypervisor\": %s, "
      "\"loadavg\": \"%s\"}\n",
      workload.c_str(), static_cast<unsigned long long>(seed),
      json_escape(source_id).c_str(), PERFBENCH_BUILD_TYPE,
      json_escape(flags).c_str(), ndebug ? "true" : "false",
      suspect ? "true" : "false", PERFBENCH_COMPILER, sysconf(_SC_NPROCESSORS_ONLN),
      threads_per_core, hypervisor ? "true" : "false",
      json_escape(read_first_line("/proc/loadavg")).c_str());
}

// ------------------------------------------------------------------ runs

/// The rate the program sustains when the host leaves it alone: the 75th
/// percentile of the per-batch rates.  On a shared guest the hypervisor
/// takes whole vCPUs away for milliseconds at a time (steal time), which
/// only ever slows a batch; a phase-locked workload stalls on every rank
/// when one vCPU is taken.  The faster batches are the ones it spared.
double sustained(std::vector<double> rates) {
  std::sort(rates.begin(), rates.end());
  return sorted_quantile(rates, 0.75);
}

Outcome run_plain(Workload& w, std::uint64_t seed, double seconds) {
  Outcome o;
  LatencyPools latency;
  std::vector<double> setup, sps, cpu_sess, ops, cpu_op;
  double timed = 0.0;
  std::size_t batches = 0;
  for (; batches < 3 || timed < seconds; ++batches) {
    const Batch b = w.run_batch(mix(seed, batches), kWorkers, false);
    timed += b.wall_s;
    setup.push_back(b.setup_s);
    sps.push_back(static_cast<double>(b.sessions) / b.wall_s);
    cpu_sess.push_back(1e3 * b.cpu_s / static_cast<double>(b.sessions));
    ops.push_back(static_cast<double>(b.ops) / b.wall_s);
    cpu_op.push_back(1e6 * b.cpu_s / static_cast<double>(b.ops));
    latency.add(b.latency_us);
    o.attempted += b.attempted;
    o.failed += b.failed;
  }
  const double rss = peak_rss_mb();
  const LatencySummary lat = latency.finish();
  std::uint64_t checked = 0;
  const std::uint64_t mismatches = w.verify(checked);
  o.failed += mismatches;
  o.correct = o.failed == 0;

  std::printf("batches %zu, timed %.3f s; latency: %zu exact samples in %zu "
              "pools, median over pools: p50 %.6g us, p99 %.6g us, p%.6g "
              "(the highest percentile with >= 10 samples beyond it) %.6g "
              "us\n",
              batches, timed, lat.samples, lat.pools, lat.p50, lat.p99,
              100.0 * lat.tail_q, lat.tail);
  {
    std::vector<double> v = sps;
    std::sort(v.begin(), v.end());
    std::printf("sessions_per_s over batches: p10 %.6g, p25 %.6g, p50 %.6g, "
                "p75 %.6g, p90 %.6g\n",
                sorted_quantile(v, 0.10), sorted_quantile(v, 0.25),
                sorted_quantile(v, 0.50), sorted_quantile(v, 0.75),
                sorted_quantile(v, 0.90));
  }
  std::printf("verify: %llu results recomputed, %llu mismatches\n",
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(mismatches));
  o.metrics = {
      {"setup_s", median(setup), "s"},
      {"sessions_per_s", sustained(sps), "1/s"},
      {"cpu_ms_per_session", median(cpu_sess), "ms"},
      {"ops_per_s", sustained(ops), "1/s"},
      {"call_p50_us", lat.p50, "us"},
      {"call_p99_us", lat.p99, "us"},
      {"cpu_us_per_op", median(cpu_op), "us"},
      {"peak_rss_mb", rss, "MB"},
  };
  return o;
}

Outcome run_traced(Workload& w, std::uint64_t seed, double seconds,
                   const std::string& spans_out) {
  std::vector<double> overhead, inflation;
  double traced_wall = 0.0, elapsed = 0.0, plain_session_ns = 0.0;
  std::uint64_t traced_ops = 0, fingerprint_mismatch = 0;
  Outcome o;
  reset_all();
  for (std::uint64_t i = 0; i < 2 || elapsed < seconds; ++i) {
    const std::uint64_t s = mix(seed, i);
    Batch plain = w.run_batch(s, kWorkers, false);
    Batch traced = w.run_batch(s, kWorkers, true);
    elapsed += plain.wall_s + traced.wall_s;
    traced_wall += traced.wall_s;
    traced_ops += traced.ops;
    overhead.push_back(traced.wall_s / plain.wall_s - 1.0);
    for (const double us : plain.latency_us) plain_session_ns += 1e3 * us;
    fingerprint_mismatch += plain.fingerprint != traced.fingerprint;
    o.attempted += plain.attempted + traced.attempted;
    o.failed += plain.failed + traced.failed;
    if (w.repro()) {
      Batch one = w.run_batch(s, 1, false);
      elapsed += one.wall_s;
      fingerprint_mismatch += one.fingerprint != plain.fingerprint;
      o.attempted += one.attempted;
      o.failed += one.failed;
      inflation.push_back((plain.cpu_s / static_cast<double>(plain.sessions)) /
                          (one.cpu_s / static_cast<double>(one.sessions)));
    }
  }
  std::uint64_t checked = 0;
  const std::uint64_t mismatches = w.verify(checked);
  o.failed += mismatches + fingerprint_mismatch;

  const auto st = merge_all();
  const RegistryTotals& t = w.totals;
  const double capacity_ns = 1e9 * traced_wall * w.load_threads();
  const auto frac = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto q = [&](Layer l, double quant) {
    return st[l].hist.quantile(quant);
  };
  const double strategy_ns = st[kPropose].total_ns + st[kObserve].total_ns;
  const double tiers = t.lookups_exact + t.lookups_memo + t.lookups_kdtree;
  FineHist calls = st[kFetch].hist;
  calls.merge(st[kReport].hist);
  HistSum wire = t.fetch_wire_ns;
  for (std::size_t i = 0; i < t.report_wire_ns.snap.counts.size(); ++i) {
    if (wire.snap.counts.size() <= i) wire.snap.counts.resize(i + 1, 0);
    wire.snap.counts[i] += t.report_wire_ns.snap.counts[i];
  }
  wire.snap.count += t.report_wire_ns.snap.count;
  const bool has_wire = wire.snap.count > 0;

  if (w.repro()) {
    // Attribution checks: the engine's self time is the session time not
    // covered by strategy and evaluator spans, and every database lookup
    // the spans saw was answered by exactly one tier.
    const double session = st[kSession].total_ns;
    const double parts =
        strategy_ns + st[kRunStep].total_ns + st[kSession].self_ns;
    std::printf("attribution: session %.6g ms = strategy %.6g + evaluator "
                "%.6g + engine self %.6g (sum %.6g ms); same sessions "
                "untraced: %.6g ms of repetition time\n",
                1e-6 * session, 1e-6 * strategy_ns,
                1e-6 * st[kRunStep].total_ns, 1e-6 * st[kSession].self_ns,
                1e-6 * parts, 1e-6 * plain_session_ns);
    std::printf("cluster replay ratio base: %.0f refreshes\n",
                t.replay + t.recompute);
  } else {
    std::printf("harmony/net quantiles come from obs:: log2 histograms "
                "(within 2x); samples: fetch %llu, report %llu, wire %llu\n",
                static_cast<unsigned long long>(t.fetch_ns.snap.count),
                static_cast<unsigned long long>(t.report_ns.snap.count),
                static_cast<unsigned long long>(wire.snap.count));
  }
  std::printf("gs2 tiers: exact %.0f + memo %.0f + kdtree %.0f = %.0f; "
              "points passed to the landscape: %llu\n",
              t.lookups_exact, t.lookups_memo, t.lookups_kdtree, tiers,
              static_cast<unsigned long long>(st[kCleanTime].items));
  if (static_cast<std::uint64_t>(tiers) != st[kCleanTime].items) {
    note_error("gs2 tier counts do not add up to the traced lookups");
    ++o.failed;
  }
  std::printf("verify: %llu results recomputed, %llu mismatches; traced vs "
              "untraced result fingerprints: %llu mismatches\n",
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(mismatches),
              static_cast<unsigned long long>(fingerprint_mismatch));
  if (!spans_out.empty()) {
    std::ofstream out(spans_out);
    write_spans(out);
  }
  o.correct = o.failed == 0;

  o.metrics = {
      {"exp.reps", static_cast<double>(st[kRep].calls), "count"},
      {"exp.rep_ms_p50", 1e-6 * q(kRep, 0.50), "ms"},
      {"exp.rep_ms_p99", 1e-6 * q(kRep, 0.99), "ms"},
      {"exp.worker_idle_frac",
       w.repro() ? 1.0 - frac(st[kRep].total_ns, capacity_ns) : 0.0, "frac"},
      {"exp.cpu_inflation", median(inflation), "ratio"},
      {"core.strategy.propose_ns_p50", q(kPropose, 0.50), "ns"},
      {"core.strategy.propose_ns_p99", q(kPropose, 0.99), "ns"},
      {"core.strategy.observe_ns_p50", q(kObserve, 0.50), "ns"},
      {"core.strategy.observe_ns_p99", q(kObserve, 0.99), "ns"},
      {"core.strategy.busy_frac", frac(strategy_ns, capacity_ns), "frac"},
      {"core.engine.self_frac",
       frac(st[kSession].self_ns, st[kSession].total_ns), "frac"},
      {"core.rounds", t.rounds, "count"},
      {"cluster.run_step_ns_p50", q(kRunStep, 0.50), "ns"},
      {"cluster.run_step_ns_p99", q(kRunStep, 0.99), "ns"},
      {"cluster.run_step.self_frac",
       frac(st[kRunStep].self_ns, st[kRunStep].total_ns), "frac"},
      {"cluster.replay_ratio", frac(t.replay, t.replay + t.recompute),
       "frac"},
      {"gs2.clean_times_ns_p50", q(kCleanTime, 0.50), "ns"},
      {"gs2.clean_times_ns_p99", q(kCleanTime, 0.99), "ns"},
      {"gs2.busy_frac", frac(st[kCleanTime].total_ns, capacity_ns), "frac"},
      {"gs2.lookups.exact", t.lookups_exact, "count"},
      {"gs2.lookups.memo", t.lookups_memo, "count"},
      {"gs2.lookups.kdtree", t.lookups_kdtree, "count"},
      {"gs2.memo_hit_ratio",
       frac(t.lookups_memo, t.lookups_memo + t.lookups_kdtree), "frac"},
      {"varmodel.sample_batch_ns_p50", q(kNoise, 0.50), "ns"},
      {"varmodel.sample_batch_ns_p99", q(kNoise, 0.99), "ns"},
      {"varmodel.busy_frac", frac(st[kNoise].total_ns, capacity_ns), "frac"},
      {"harmony.fetch_ns_p50", t.fetch_ns.q(0.50), "ns"},
      {"harmony.fetch_ns_p99", t.fetch_ns.q(0.99), "ns"},
      {"harmony.report_ns_p50", t.report_ns.q(0.50), "ns"},
      {"harmony.report_ns_p99", t.report_ns.q(0.99), "ns"},
      {"harmony.round_wall_us_p50", 1e-3 * t.round_wall_ns.q(0.50), "us"},
      {"harmony.round_wall_us_p99", 1e-3 * t.round_wall_ns.q(0.99), "us"},
      {"harmony.protocol_errors", t.protocol_errors, "count"},
      {"harmony.deadline_expiries", t.deadline_expiries, "count"},
      {"harmony.discarded_reports", t.discarded, "count"},
      {"net.fetch_wire_ns_p50", t.fetch_wire_ns.q(0.50), "ns"},
      {"net.fetch_wire_ns_p99", t.fetch_wire_ns.q(0.99), "ns"},
      {"net.report_wire_ns_p50", t.report_wire_ns.q(0.50), "ns"},
      {"net.report_wire_ns_p99", t.report_wire_ns.q(0.99), "ns"},
      {"net.transport_ns_p50",
       has_wire ? calls.quantile(0.50) - wire.q(0.50) : 0.0, "ns"},
      {"net.bytes_per_op", frac(t.bytes, static_cast<double>(traced_ops)),
       "bytes"},
      {"net.decode_errors", t.decode_errors, "count"},
      {"trace.overhead_frac", median(overhead), "frac"},
  };
  return o;
}

// Ends the process if a run hangs (e.g. a serving worker died and its
// peers wait for its ranks forever), so the run fails instead of stalling.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock lock(mutex_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr, "perfbench: run exceeded %llds, aborting\n",
                         static_cast<long long>(limit.count()));
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      const std::lock_guard lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <repro_fig10|repro_wide|"
               "serve_wire|serve_hot_session> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-out <file>] [--source-id <id>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, spans_out, source_id = "unknown";
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::atof(val);
    } else if (key == "--trace") {
      trace = std::atoi(val);
    } else if (key == "--spans-out") {
      spans_out = val;
    } else if (key == "--source-id") {
      source_id = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return usage();
  }
  std::unique_ptr<Workload> w = make_workload(workload);
  if (!w) return usage();

  const Watchdog watchdog(std::chrono::seconds(170));
  print_provenance(workload, seed, source_id);
  std::printf("shape %s\n", w->shape().c_str());
  const Outcome o = trace == 1 ? run_traced(*w, seed, seconds, spans_out)
                               : run_plain(*w, seed, seconds);
  if (!g_first_error.empty()) {
    std::fprintf(stderr, "first error: %s\n", g_first_error.c_str());
  }
  print_result(o);
  return o.correct ? 0 : 1;
}
