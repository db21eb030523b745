// Active-Harmony-style tuning server (paper §1: applications register their
// tunable parameters; the server iteratively monitors performance and tunes).
//
// The server is a transport front end over core::RoundEngine: it owns a
// TuningStrategy, keeps exactly one round open at all times, and maps the
// bulk-synchronous client protocol onto engine transitions:
//   * each rank calls fetch() to receive its configuration for the current
//     application time step (an engine assignment slot);
//   * after running one iteration it calls report(time) (engine submit);
//   * when the last expected rank reports, the server closes the round
//     (T_k = max over ranks, strategy advance, observer fan-out) and opens
//     the next one.
//
// Concurrency (DESIGN.md §12): the Collecting phase is contention-free.
// Each open round's assignment and per-slot completion state live in a
// double-buffered RoundBuffer published with release/acquire ordering on the
// round counter; a fetch for the open round and a report that is not the
// round's last touch only per-slot atomics and a reader-count gate (two
// uncontended RMWs), so distinct ranks never serialize on a mutex.  The
// exclusive lock is taken only at the round-advance barrier (the last
// report or a deadline sweep), by blocked fetch waiters, and by rank
// re-entry — exactly the points where the protocol itself is a barrier.
// Latency telemetry stamps with obs::LatencyClock (rdtsc) instead of
// steady_clock — at serving rates the four vDSO clock reads per
// fetch/report pair outweigh the protocol itself.  Accounting accessors
// read an atomics-backed stats cache refreshed at each advance, so
// monitoring (stats snapshots, exporters) never blocks fetch/report
// traffic.
//
// Deadline-aware round closing: with ServerOptions::report_timeout set, a
// round that stays open past the deadline is force-closed — every missing
// rank's time is imputed as max-of-observed × core::kImputePenalty (the
// paper's worst-case metric makes this the natural pessimistic estimate)
// and the straggler is handled per StragglerPolicy: kShrink drops it from
// future rounds (it may re-enter by calling fetch again), kFail poisons the
// session so every subsequent call throws.  The deadline is enforced by
// ranks blocked in fetch() waiting for the next round, or externally via
// tick() for drivers that never block; tick() never blocks in-flight
// fetch/report fast paths.
//
// Protocol violations — out-of-range rank, double fetch, report without a
// fetch — are hard errors (ProtocolError), never silent misbehavior or
// deadlock.
//
// Thread-safe: designed to be driven by comm::spmd_run ranks concurrently
// (the in-process stand-in for Active Harmony's socket protocol), and works
// equally from a sequential loop.  One rank's fetch/report calls must be
// issued in program order (they may hop threads between calls as long as
// the caller orders them, e.g. by joining or by its own synchronization).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parameter_space.h"
#include "core/round_engine.h"
#include "core/strategy.h"
#include "obs/fast_clock.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace protuner::harmony {

/// A client broke the fetch/report protocol, or the session was poisoned
/// by a straggler deadline under StragglerPolicy::kFail.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class StragglerPolicy {
  /// Impute the missing times, drop the straggler from future rounds and
  /// keep tuning with the remaining ranks.  Dropped ranks re-enter by
  /// calling fetch() again.
  kShrink,
  /// Poison the session: the deadline violation is fatal and every
  /// subsequent fetch/report throws ProtocolError.
  kFail,
};

struct ServerOptions {
  /// Wall-clock budget for one round, measured from the moment its
  /// assignment is published.  Zero (the default) disables the deadline:
  /// rounds wait for every rank, however long it takes.
  std::chrono::duration<double> report_timeout{0.0};
  StragglerPolicy straggler_policy = StragglerPolicy::kShrink;
  /// Per-step caller callback (e.g. CSV logging), invoked under the server
  /// lock when a round closes — the same fan-out run_session-driven
  /// sessions get.
  core::SessionObserver* observer = nullptr;
  /// Keep the per-step T_k series (step_costs()); off to save memory on
  /// very long sessions.
  bool record_series = true;
  /// Registry the server's (and its engine's) telemetry is registered in;
  /// null means obs::Registry::global().
  obs::Registry* metrics = nullptr;
  /// Session name, applied as the {"session", ...} label on every
  /// instrument so one registry can host many concurrent sessions
  /// (SessionManager::create fills it in from the session name).  Empty
  /// registers the instruments unlabelled.
  std::string session;
  /// Flight recorder the server's control-plane events (round transitions,
  /// imputations, deadline expiries, protocol errors) are appended to; null
  /// means obs::FlightRecorder::global().
  obs::FlightRecorder* flight = nullptr;
};

class Server {
 public:
  /// `clients` ranks will call fetch/report each round.  The strategy is
  /// started with that width.
  Server(core::TuningStrategyPtr strategy, std::size_t clients,
         ServerOptions options = {});

  /// Blocks until the current round's assignment is available, returns the
  /// configuration rank `rank` must run.  Each rank must alternate
  /// fetch/report strictly; a dropped rank re-enters the session here.
  core::Point fetch(std::size_t rank);

  /// Non-allocating fetch: fills `out` (reusing its capacity) with the
  /// configuration rank `rank` must run.  Identical semantics to fetch();
  /// once the round shape is warm this is heap-silent, so an open-loop
  /// load generator can drive millions of ops without touching malloc.
  void fetch_into(std::size_t rank, core::Point& out);

  /// Non-blocking fetch for event-loop transports (net::NetServer): returns
  /// true and fills `out` when the rank's round is open, false when the
  /// fetch would have to wait for the next round to be published (the
  /// caller parks the request and retries after the round advances — the
  /// server's round counter, visible through rounds_completed(), bumps at
  /// every advance).  A dropped rank re-enters the session here exactly as
  /// it would in fetch(): the first call reactivates it and returns false,
  /// a retry after the next publish succeeds.  Protocol violations throw
  /// ProtocolError just like fetch(); unlike fetch() this never sleeps, so
  /// a deadline must be enforced externally via tick().  On success `trace`
  /// receives the served round's trace context (DESIGN.md §15), so a wire
  /// transport can hand the client the ids its own spans must join.
  bool try_fetch_into(std::size_t rank, core::Point& out,
                      obs::TraceContext& trace);

  /// The correlation id every span of round `round` carries, on this
  /// process and (propagated over the wire) on every client that served
  /// it.  Deterministic per (server instance, round): derived from a
  /// per-server random seed, never zero.
  std::uint64_t round_trace_id(std::uint64_t round) const;

  /// Reports the observed iteration time for the configuration most
  /// recently fetched by `rank`.  The final report of a round closes it:
  /// the engine accounts T_k, advances the strategy and publishes the next
  /// assignment.  A report for a round that was already deadline-closed is
  /// discarded (the rank's measurement arrived too late to count).  A
  /// NaN, infinite or negative `time` is a ProtocolError and changes no
  /// state.
  void report(std::size_t rank, double time);

  /// Deadline poll for drivers with no rank blocked in fetch(): closes the
  /// open round by imputation if its deadline has expired.  Returns true
  /// when it closed a round.  No-op when the deadline is disabled.  Never
  /// blocks concurrent fetch/report fast paths, however often it is called.
  bool tick();

  /// Accounting (safe to read while traffic is in flight: these read the
  /// atomics-backed stats cache refreshed at each round advance and never
  /// contend with the fetch/report fast path).
  double total_time() const;
  std::size_t rounds_completed() const;
  core::Point best_point() const;
  bool converged() const;
  std::vector<double> step_costs() const;
  std::optional<std::size_t> convergence_round() const;

  std::size_t clients() const { return clients_; }
  /// Ranks currently participating in rounds (clients() minus dropped).
  std::size_t active_ranks() const;
  /// The configured round deadline (zero = disabled).  The serving tier's
  /// stall watchdog scales its threshold from this.
  std::chrono::duration<double> report_timeout() const {
    return options_.report_timeout;
  }
  /// Name of the strategy behind the session (for stats snapshots).
  std::string strategy_name() const;
  /// The session's telemetry label (ServerOptions::session).
  const std::string& session_name() const { return options_.session; }

 private:
  // Per-slot completion state of one open round.
  enum SlotState : std::uint8_t {
    kSlotIdle = 0,  ///< not part of this round (inactive rank placeholder)
    kSlotPending,   ///< expected, not yet reported
    kSlotReported,  ///< time recorded by the rank (claims the slot)
    kSlotImputed,   ///< claimed by the deadline sweep; a late report loses
  };

  struct alignas(64) Slot {
    std::atomic<std::uint8_t> state{kSlotIdle};
    double time = 0.0;  ///< written by the owning rank before its claim CAS
  };

  // One open round's published state.  Double-buffered: round k lives in
  // buffers_[k & 1]; the buffer is recycled for round k+2 with the gate
  // held exclusively, so a straggling reader of round k (which revalidates
  // round_ while holding a read share) can never observe a half-written
  // successor.
  //
  // The gate is a reader-count word, not a shared_mutex: entry and exit
  // are one uncontended RMW each (~5ns vs ~25ns per pthread rwlock op),
  // and because every entry is an RMW on the same word, the recycler's
  // CAS 0 → kGateLocked atomically drains current readers and bounces
  // future ones (a reader that observes a negative count backs out to the
  // slow path without touching the buffer).  The recycler runs once per
  // round under mutex_ and spin-yields for the nanosecond-scale read
  // holds, so writer-side waiting is not on any hot path.
  struct RoundBuffer {
    std::atomic<std::int32_t> gate{0};
    std::vector<core::Point> assignment;  ///< one configuration per rank
    std::unique_ptr<Slot[]> slots;        ///< clients_ entries
    std::atomic<std::size_t> pending{0};  ///< expected slots not yet claimed
  };

  static constexpr std::int32_t kGateLocked =
      std::numeric_limits<std::int32_t>::min() / 2;

  /// Acquires a read share of the buffer; false when the recycler holds it
  /// (caller must fall back to the mutex_ path).
  static bool gate_enter(RoundBuffer& buf) {
    if (buf.gate.fetch_add(1, std::memory_order_acquire) < 0) {
      buf.gate.fetch_sub(1, std::memory_order_relaxed);
      return false;
    }
    return true;
  }
  static void gate_exit(RoundBuffer& buf) {
    buf.gate.fetch_sub(1, std::memory_order_release);
  }
  static void gate_lock(RoundBuffer& buf);
  static void gate_unlock(RoundBuffer& buf) {
    buf.gate.fetch_sub(kGateLocked, std::memory_order_release);
  }

  // Per-rank protocol state.  Owned by the rank: the caller orders one
  // rank's fetch/report calls, so no atomics are needed; padding keeps
  // neighbouring ranks off each other's cache line.
  struct alignas(64) RankState {
    std::uint64_t round = 0;  ///< round this rank works on next
    bool fetched = false;     ///< rank holds an unreported assignment
  };

  void throw_if_failed_locked() const;
  [[noreturn]] void fail_locked(const std::string& why);
  /// Closes round `round` once every expected slot is claimed: feeds the
  /// engine, handles imputed slots, advances and publishes the successor.
  void finish_round_locked(std::uint64_t round);
  /// Engine close + open, stats-cache refresh, successor publication.
  void advance_locked();
  /// Copies the engine's open assignment into the target round's buffer and
  /// publishes it by storing round_.
  void publish_round_locked(std::uint64_t round);
  bool deadline_enabled() const;
  std::chrono::steady_clock::time_point deadline_locked() const;
  /// Force-closes the open round by imputation if its deadline has
  /// expired.  Returns true when the round was closed.
  bool close_by_deadline_locked();
  /// Lock-free Collecting-phase fetch: serves the open round through the
  /// gate; false when the caller must take the slow (mutex) path.
  /// `entered` is the obs::LatencyClock stamp taken at fetch entry.
  bool fetch_fast(std::size_t rank, core::Point& out, std::uint64_t entered);
  /// The locked fetch step shared by fetch_slow and try_fetch_into: serves
  /// the rank's open round (true), or returns false when the rank must wait
  /// for a later round, first re-entering it at the next round if it was
  /// dropped or overtaken.  Throws on a poisoned session or a double fetch.
  bool serve_locked(std::size_t rank, core::Point& out, std::uint64_t entered);
  /// Blocking slow path: serve_locked until it serves, waiting on
  /// round_ready_ (or enforcing the deadline) between tries.
  void fetch_slow(std::size_t rank, core::Point& out, std::uint64_t entered);
  void check_fetch_rank(std::size_t rank) const;
  void refresh_stats_cache_locked(double last_cost);
  /// Counts the violation and appends it to the flight recorder.
  void note_protocol_error(const char* kind, std::size_t rank) const;

  core::TuningStrategyPtr strategy_;
  const std::size_t clients_;
  const ServerOptions options_;

  // Telemetry, resolved once here; recording is allocation-free.
  obs::Histogram& obs_fetch_ns_;
  obs::Histogram& obs_report_ns_;
  obs::Histogram& obs_round_wall_ns_;
  obs::Counter& obs_protocol_errors_;
  obs::Counter& obs_deadline_expiries_;
  obs::Counter& obs_discarded_reports_;
  obs::FlightRecorder& flight_;
  const std::uint64_t trace_seed_;  ///< per-server entropy for round ids

  // ------------------------------------------------ contention-free state
  RoundBuffer buffers_[2];
  std::atomic<std::uint64_t> round_{0};  ///< index of the open round
  std::atomic<bool> failed_{false};
  std::vector<RankState> ranks_;

  // -------------------------------------------- round-advance barrier lock
  // Guards the engine, the deadline clock and the failure string.  Taken by
  // the closing report, the deadline sweep, blocked fetch waiters and rank
  // re-entry — never by the Collecting-phase fast path.
  mutable std::mutex mutex_;
  std::condition_variable round_ready_;
  core::RoundEngine engine_;
  std::chrono::steady_clock::time_point round_opened_;
  std::string failure_;  ///< non-empty once the session is poisoned

  // ------------------------------------------------------------ stats cache
  // Refreshed under mutex_ at every advance; read by the accessors without
  // touching mutex_, so exporters and dashboards never stall traffic.
  std::atomic<std::size_t> stat_rounds_{0};
  std::atomic<double> stat_total_time_{0.0};
  std::atomic<bool> stat_converged_{false};
  std::atomic<std::size_t> stat_convergence_round_{0};  ///< 0 = none yet
  std::atomic<std::size_t> stat_active_{0};
  mutable std::mutex stats_mutex_;  ///< guards the two non-atomic fields
  core::Point stat_best_;
  std::vector<double> stat_costs_;
  const std::string strategy_name_;
};

/// Per-rank convenience handle.
class Client {
 public:
  Client(Server& server, std::size_t rank) : server_(server), rank_(rank) {}

  core::Point fetch() { return server_.fetch(rank_); }
  void fetch(core::Point& out) { server_.fetch_into(rank_, out); }
  void report(double time) { server_.report(rank_, time); }
  std::size_t rank() const { return rank_; }

 private:
  Server& server_;
  std::size_t rank_;
};

}  // namespace protuner::harmony
