#include "harmony/server.h"

#include <unistd.h>

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/trace.h"

namespace protuner::harmony {

namespace {

obs::FlightRecorder& server_flight(const ServerOptions& options) {
  return options.flight != nullptr ? *options.flight
                                   : obs::FlightRecorder::global();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Per-server entropy for round trace ids: wall entropy + pid + a process
/// counter, so two servers (or two processes) never mint the same stream.
std::uint64_t make_trace_seed() {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t now = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  return splitmix64(now ^ (static_cast<std::uint64_t>(::getpid()) << 32) ^
                    counter.fetch_add(1, std::memory_order_relaxed));
}

core::RoundEngineOptions engine_options(std::size_t clients,
                                        const ServerOptions& options) {
  if (clients == 0) {
    throw std::invalid_argument("Server: clients must be >= 1");
  }
  core::RoundEngineOptions eo;
  eo.width = clients;
  eo.pad_assignment = true;
  eo.record_series = false;  // the server keeps its own series (stats cache)
  eo.observer = options.observer;
  eo.metrics = options.metrics;
  eo.session = options.session;
  return eo;
}

obs::Registry& server_registry(const ServerOptions& options) {
  return options.metrics != nullptr ? *options.metrics
                                    : obs::Registry::global();
}

obs::Labels server_labels(const ServerOptions& options) {
  if (options.session.empty()) return {};
  return {{"session", options.session}};
}

double elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

double elapsed_ns(std::uint64_t entered_ticks) {
  return obs::LatencyClock::to_ns(obs::LatencyClock::now() - entered_ticks);
}

}  // namespace

void Server::gate_lock(RoundBuffer& buf) {
  std::int32_t expected = 0;
  while (!buf.gate.compare_exchange_weak(expected, kGateLocked,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
    expected = 0;
    // Read holds are nanosecond-scale; a non-zero count means the holder
    // is mid-copy (or preempted, which the yield resolves on small boxes).
    std::this_thread::yield();
  }
}

Server::Server(core::TuningStrategyPtr strategy, std::size_t clients,
               ServerOptions options)
    : strategy_(std::move(strategy)),
      clients_(clients),
      options_(std::move(options)),
      obs_fetch_ns_(server_registry(options_).histogram(
          "protuner_harmony_fetch_ns",
          "fetch() latency including the wait for the round to open (ns)",
          server_labels(options_))),
      obs_report_ns_(server_registry(options_).histogram(
          "protuner_harmony_report_ns", "report() latency (ns)",
          server_labels(options_))),
      obs_round_wall_ns_(server_registry(options_).histogram(
          "protuner_harmony_round_wall_ns",
          "Wall-clock time a round stayed open (ns)",
          server_labels(options_))),
      obs_protocol_errors_(server_registry(options_).counter(
          "protuner_harmony_protocol_errors_total",
          "Client protocol violations (double fetch, report without fetch, "
          "rank out of range)",
          server_labels(options_))),
      obs_deadline_expiries_(server_registry(options_).counter(
          "protuner_harmony_deadline_expiries_total",
          "Rounds whose report deadline expired", server_labels(options_))),
      obs_discarded_reports_(server_registry(options_).counter(
          "protuner_harmony_discarded_reports_total",
          "Reports that arrived after their round was deadline-closed",
          server_labels(options_))),
      flight_(server_flight(options_)),
      trace_seed_(make_trace_seed()),
      engine_((strategy_ == nullptr
                   ? throw std::invalid_argument(
                         "Server: strategy must not be null")
                   : *strategy_),
              engine_options(clients, options_)),
      strategy_name_(strategy_->name()) {
  ranks_.resize(clients_);
  for (RoundBuffer& buf : buffers_) {
    buf.assignment.resize(clients_);
    buf.slots = std::make_unique<Slot[]>(clients_);
  }
  // Pre-pay the one-time TSC calibration spin so the first fetch's latency
  // stamp is not inflated by ~200µs of calibration.
  obs::LatencyClock::ns_per_tick();
  const std::scoped_lock lock(mutex_);
  {
    const std::uint64_t id = round_trace_id(0);
    const obs::ScopedTraceContext ctx({id, id});
    engine_.open_round();
  }
  refresh_stats_cache_locked(0.0);
  publish_round_locked(0);
}

std::uint64_t Server::round_trace_id(std::uint64_t round) const {
  const std::uint64_t id = splitmix64(trace_seed_ + round + 1);
  return id != 0 ? id : 1;
}

void Server::note_protocol_error(const char* kind, std::size_t rank) const {
  obs_protocol_errors_.add();
  flight_.record(kind, options_.session, static_cast<std::uint32_t>(rank),
                 round_.load(std::memory_order_relaxed));
}

void Server::throw_if_failed_locked() const {
  if (!failure_.empty()) {
    throw ProtocolError("harmony session failed: " + failure_);
  }
}

void Server::fail_locked(const std::string& why) {
  failure_ = why;
  flight_.record("session/fail", options_.session, 0,
                 round_.load(std::memory_order_relaxed));
  failed_.store(true, std::memory_order_release);
  round_ready_.notify_all();
  throw ProtocolError("harmony session failed: " + failure_);
}

void Server::refresh_stats_cache_locked(double last_cost) {
  stat_rounds_.store(engine_.rounds_completed(), std::memory_order_relaxed);
  stat_total_time_.store(engine_.total_time(), std::memory_order_relaxed);
  stat_converged_.store(strategy_->converged(), std::memory_order_relaxed);
  stat_convergence_round_.store(engine_.convergence_round().value_or(0),
                                std::memory_order_relaxed);
  stat_active_.store(engine_.active_count(), std::memory_order_relaxed);
  const std::scoped_lock stats(stats_mutex_);
  stat_best_ = strategy_->best_point();
  if (options_.record_series && engine_.rounds_completed() > 0) {
    stat_costs_.push_back(last_cost);
  }
}

void Server::publish_round_locked(std::uint64_t round) {
  RoundBuffer& buf = buffers_[round & 1];
  // Drain stragglers still reading this buffer's previous tenant
  // (round - 2); their read share blocks the recycle, never the reverse.
  gate_lock(buf);
  std::size_t expected = 0;
  for (std::size_t s = 0; s < clients_; ++s) {
    buf.assignment[s] = engine_.assignment_for(s);
    const bool exp = engine_.expected(s);
    buf.slots[s].state.store(exp ? kSlotPending : kSlotIdle,
                             std::memory_order_relaxed);
    if (exp) ++expected;
  }
  buf.pending.store(expected, std::memory_order_relaxed);
  gate_unlock(buf);
  flight_.record("round/open", options_.session,
                 static_cast<std::uint32_t>(expected), round);
  round_opened_ = std::chrono::steady_clock::now();
  // Release-publish: a fast-path reader that observes `round` here also
  // observes the buffer contents written above.
  round_.store(round, std::memory_order_release);
  round_ready_.notify_all();
}

void Server::advance_locked() {
  obs_round_wall_ns_.record(elapsed_ns(round_opened_));
  const std::uint64_t cur = round_.load(std::memory_order_relaxed);
  double cost;
  {
    // The engine's round/advance span joins the closing round's trace.
    const std::uint64_t id = round_trace_id(cur);
    const obs::ScopedTraceContext ctx({id, id});
    cost = engine_.close_round();
  }
  flight_.record("round/close", options_.session, 0, cur, cost);
  {
    // ... and its round/assign span joins the successor's.
    const std::uint64_t id = round_trace_id(cur + 1);
    const obs::ScopedTraceContext ctx({id, id});
    engine_.open_round();
  }
  refresh_stats_cache_locked(cost);
  publish_round_locked(cur + 1);
}

void Server::finish_round_locked(std::uint64_t round) {
  assert(round_.load(std::memory_order_relaxed) == round);
  throw_if_failed_locked();
  RoundBuffer& buf = buffers_[round & 1];
  // Every expected slot is claimed (pending == 0), so each slot's state is
  // final and a kSlotReported acquire load synchronizes with the owning
  // rank's release CAS — its time write is visible.
  bool any_imputed = false;
  for (std::size_t s = 0; s < clients_; ++s) {
    const std::uint8_t st = buf.slots[s].state.load(std::memory_order_acquire);
    if (st == kSlotReported) {
      engine_.submit(s, buf.slots[s].time);
    } else if (st == kSlotImputed) {
      any_imputed = true;
    }
  }
  if (any_imputed) {
    // kShrink: close the round with the missing times imputed
    // (max-of-observed × penalty) and drop the stragglers from future
    // rounds.  The deadline sweep pre-checked that an impute base exists.
    for (const std::size_t slot : engine_.impute_missing()) {
      flight_.record("rank/impute", options_.session,
                     static_cast<std::uint32_t>(slot), round);
      engine_.deactivate(slot);
    }
    if (engine_.active_count() == 0) {
      fail_locked("every rank missed the report deadline in round " +
                  std::to_string(round));
    }
  }
  advance_locked();
}

bool Server::deadline_enabled() const {
  return options_.report_timeout > std::chrono::duration<double>::zero();
}

std::chrono::steady_clock::time_point Server::deadline_locked() const {
  return round_opened_ +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             options_.report_timeout);
}

bool Server::close_by_deadline_locked() {
  if (!deadline_enabled() || !failure_.empty()) return false;
  const std::uint64_t round = round_.load(std::memory_order_relaxed);
  RoundBuffer& buf = buffers_[round & 1];
  // pending == 0 means the closing report already owns the round: it is
  // waiting on mutex_ behind us and will advance the moment we release.
  if (buf.pending.load(std::memory_order_acquire) == 0) return false;
  if (std::chrono::steady_clock::now() < deadline_locked()) return false;

  obs_deadline_expiries_.add();
  flight_.record("deadline/expire", options_.session,
                 static_cast<std::uint32_t>(
                     buf.pending.load(std::memory_order_relaxed)),
                 round);
  if (options_.straggler_policy == StragglerPolicy::kFail) {
    fail_locked("round " + std::to_string(round) +
                " report deadline expired with " +
                std::to_string(buf.pending.load(std::memory_order_relaxed)) +
                " rank(s) missing");
  }

  // Nothing observed this round and no completed round to extrapolate
  // from: there is no defensible imputation — restart the deadline rather
  // than invent a number.  (Reports only accumulate, so a positive check
  // here cannot be invalidated before the sweep below.)
  bool have_base = engine_.rounds_completed() > 0;
  for (std::size_t s = 0; !have_base && s < clients_; ++s) {
    have_base =
        buf.slots[s].state.load(std::memory_order_acquire) == kSlotReported;
  }
  if (!have_base) {
    round_opened_ = std::chrono::steady_clock::now();
    return false;
  }

  // Sweep: claim every still-pending slot as imputed.  A rank racing us
  // with a real report wins or loses each slot atomically; losers discard
  // their measurement (it arrived too late to count).
  bool closed_here = false;
  for (std::size_t s = 0; s < clients_; ++s) {
    std::uint8_t expect = kSlotPending;
    if (buf.slots[s].state.compare_exchange_strong(
            expect, kSlotImputed, std::memory_order_acq_rel)) {
      if (buf.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        closed_here = true;
      }
    }
  }
  if (!closed_here) {
    // A concurrent report made the final claim; that rank closes the round
    // as soon as we release the lock.
    return false;
  }
  finish_round_locked(round);
  return true;
}

core::Point Server::fetch(std::size_t rank) {
  core::Point out;
  fetch_into(rank, out);
  return out;
}

void Server::check_fetch_rank(std::size_t rank) const {
  if (rank >= clients_) {
    note_protocol_error("error/fetch-rank", rank);
    throw ProtocolError("fetch: rank " + std::to_string(rank) +
                        " out of range [0, " + std::to_string(clients_) +
                        ")");
  }
}

bool Server::fetch_fast(std::size_t rank, core::Point& out,
                        std::uint64_t entered) {
  RankState& rs = ranks_[rank];
  if (!failed_.load(std::memory_order_acquire)) {
    const std::uint64_t cur = round_.load(std::memory_order_acquire);
    if (rs.round == cur) {
      RoundBuffer& buf = buffers_[cur & 1];
      if (gate_enter(buf)) {
        // Revalidate while holding a read share: the buffer is recycled
        // only with the gate locked and republished before round_ moves
        // again, so content version == cur iff round_ still reads cur.
        if (round_.load(std::memory_order_acquire) == cur &&
            buf.slots[rank].state.load(std::memory_order_acquire) !=
                kSlotIdle) {
          if (rs.fetched) {
            gate_exit(buf);
            note_protocol_error("error/double-fetch", rank);
            throw ProtocolError("fetch: rank " + std::to_string(rank) +
                                " fetched twice without reporting");
          }
          rs.fetched = true;
          out = buf.assignment[rank];
          gate_exit(buf);
          obs_fetch_ns_.record(elapsed_ns(entered));
          return true;
        }
        gate_exit(buf);
      }
    }
  }
  return false;
}

void Server::fetch_into(std::size_t rank, core::Point& out) {
  obs::ScopedSpan span(obs::Tracer::global(), "harmony/fetch");
  const std::uint64_t entered = obs::LatencyClock::now();
  check_fetch_rank(rank);
  if (!fetch_fast(rank, out, entered)) fetch_slow(rank, out, entered);
  if (span.active()) {
    // A fetch leaves rs.round at the round it served.
    const std::uint64_t id = round_trace_id(ranks_[rank].round);
    span.set_context({id, id});
  }
}

bool Server::try_fetch_into(std::size_t rank, core::Point& out,
                            obs::TraceContext& trace) {
  obs::ScopedSpan span(obs::Tracer::global(), "harmony/fetch");
  const std::uint64_t entered = obs::LatencyClock::now();
  check_fetch_rank(rank);
  if (!fetch_fast(rank, out, entered)) {
    const std::scoped_lock lock(mutex_);
    if (!serve_locked(rank, out, entered)) return false;
  }
  // A fetch leaves rs.round at the round it served.
  const std::uint64_t id = round_trace_id(ranks_[rank].round);
  trace = {id, id};
  span.set_context(trace);
  return true;
}

bool Server::serve_locked(std::size_t rank, core::Point& out,
                          std::uint64_t entered) {
  throw_if_failed_locked();
  RankState& rs = ranks_[rank];
  // A rank may only fetch for the round it is in; it advances its round on
  // report.  The server's round counter trails the slowest expected rank.
  const std::uint64_t cur = round_.load(std::memory_order_relaxed);
  if (rs.round == cur && engine_.expected(rank)) {
    if (rs.fetched) {
      note_protocol_error("error/double-fetch", rank);
      throw ProtocolError("fetch: rank " + std::to_string(rank) +
                          " fetched twice without reporting");
    }
    rs.fetched = true;
    out = engine_.assignment_for(rank);
    obs_fetch_ns_.record(elapsed_ns(entered));
    return true;
  }
  if (rs.round <= cur) {
    // Dropped, or overtaken because its round was deadline-closed beneath
    // it: re-enter the session at the next round.
    rs.fetched = false;
    flight_.record("rank/reenter", options_.session,
                   static_cast<std::uint32_t>(rank), cur + 1);
    engine_.reactivate(rank);
    stat_active_.store(engine_.active_count(), std::memory_order_relaxed);
    rs.round = cur + 1;
  }
  return false;
}

void Server::fetch_slow(std::size_t rank, core::Point& out,
                        std::uint64_t entered) {
  std::unique_lock lock(mutex_);
  while (!serve_locked(rank, out, entered)) {
    if (deadline_enabled()) {
      if (round_ready_.wait_until(lock, deadline_locked()) ==
          std::cv_status::timeout) {
        close_by_deadline_locked();
      }
    } else {
      round_ready_.wait(lock);
    }
  }
}

void Server::report(std::size_t rank, double time) {
  obs::ScopedSpan span(obs::Tracer::global(), "harmony/report");
  const std::uint64_t entered = obs::LatencyClock::now();
  if (!std::isfinite(time) || time < 0) {
    // A NaN, infinite or negative time would corrupt T_k = max_p t_p and
    // the monotone Total_Time; reject it before any rank state changes.
    note_protocol_error("error/report-time", rank);
    throw ProtocolError("report: rank " + std::to_string(rank) +
                        " reported an invalid time " + std::to_string(time));
  }
  if (rank >= clients_) {
    note_protocol_error("error/report-rank", rank);
    throw ProtocolError("report: rank " + std::to_string(rank) +
                        " out of range [0, " + std::to_string(clients_) +
                        ")");
  }
  if (failed_.load(std::memory_order_acquire)) {
    const std::scoped_lock lock(mutex_);
    throw_if_failed_locked();
  }
  RankState& rs = ranks_[rank];
  if (!rs.fetched) {
    note_protocol_error("error/report-nofetch", rank);
    throw ProtocolError("report: rank " + std::to_string(rank) +
                        " reported without fetching first");
  }
  bool last = false;
  std::uint64_t round = 0;
  for (;;) {
    const std::uint64_t cur = round_.load(std::memory_order_acquire);
    if (rs.round < cur) {
      // The rank's round was deadline-closed beneath it; its measurement
      // arrived too late to count and is discarded.
      rs.fetched = false;
      ++rs.round;
      obs_discarded_reports_.add();
      flight_.record("report/discard", options_.session,
                     static_cast<std::uint32_t>(rank), cur, time);
      return;
    }
    // rs.round == cur: a rank can never lead the open round — it advances
    // past it only by reporting, after which fetch blocks until the round
    // catches up.
    RoundBuffer& buf = buffers_[cur & 1];
    if (!gate_enter(buf)) continue;  // recycler holds it; round_ has moved
    if (round_.load(std::memory_order_acquire) != cur) {
      gate_exit(buf);
      continue;
    }
    buf.slots[rank].time = time;
    std::uint8_t expect = kSlotPending;
    if (!buf.slots[rank].state.compare_exchange_strong(
            expect, kSlotReported, std::memory_order_release,
            std::memory_order_acquire)) {
      // The deadline sweep claimed this slot first: too late to count.
      gate_exit(buf);
      rs.fetched = false;
      rs.round = cur + 1;
      obs_discarded_reports_.add();
      return;
    }
    rs.fetched = false;
    rs.round = cur + 1;
    last = buf.pending.fetch_sub(1, std::memory_order_acq_rel) == 1;
    gate_exit(buf);
    round = cur;
    break;
  }
  if (last) {
    // This report completed the round: take the barrier lock and advance.
    const std::scoped_lock lock(mutex_);
    finish_round_locked(round);
  }
  obs_report_ns_.record(elapsed_ns(entered));
}

bool Server::tick() {
  const std::scoped_lock lock(mutex_);
  if (!failure_.empty()) return false;
  return close_by_deadline_locked();
}

double Server::total_time() const {
  return stat_total_time_.load(std::memory_order_relaxed);
}

std::size_t Server::rounds_completed() const {
  return stat_rounds_.load(std::memory_order_relaxed);
}

core::Point Server::best_point() const {
  const std::scoped_lock stats(stats_mutex_);
  return stat_best_;
}

bool Server::converged() const {
  return stat_converged_.load(std::memory_order_relaxed);
}

std::vector<double> Server::step_costs() const {
  const std::scoped_lock stats(stats_mutex_);
  return stat_costs_;
}

std::optional<std::size_t> Server::convergence_round() const {
  const std::size_t r =
      stat_convergence_round_.load(std::memory_order_relaxed);
  if (r == 0) return std::nullopt;
  return r;
}

std::size_t Server::active_ranks() const {
  return stat_active_.load(std::memory_order_relaxed);
}

std::string Server::strategy_name() const { return strategy_name_; }

}  // namespace protuner::harmony
