// Many-session serving soak for the Harmony front end (ROADMAP item 2):
// N sessions × P ranks of fetch/report traffic with heavy-tailed think
// times drawn from the paper's own varmodel:: noise processes — the
// premise of the paper is tuning *under load*, so its noise model is the
// right traffic model for the serving tier too.
//
// Workload shape: each session is driven by W worker threads, each owning
// a contiguous slice of the session's ranks and multiplexing them
// phase-locked — fetch every owned rank's assignment, think, then report
// every owned rank (deadlock-free by construction: a worker never blocks
// on a rank another worker must report first).  The reported measurement
// is the drawn think time y = f + n(f), n ~ Pareto(alpha) by default
// (Eq. 5/17), so round-close accounting sees the paper's heavy tail.  The
// think draw is reported as virtual seconds; wall-clock pacing
// (`think_pacing`) is optional and off by default, which makes the soak a
// saturation (closed-loop) benchmark — see EXPERIMENTS.md for when each
// mode is meaningful.
//
// Optional antagonist threads reproduce the serving environment the
// contention work in DESIGN.md §12 targets:
//   * a ticker calling Server::tick() at `tick_hz` (deadline enforcement
//     must not perturb the fast path), and
//   * a monitor sweeping SessionManager::stats_all() plus a snapshot of
//     the registry the sessions record into, in a tight loop (exporters
//     must not stall traffic).
//
// Results come from the PR-5 obs:: instruments, aggregated across the
// per-session labels by summing histogram buckets — not from a second
// measurement path, so the loadgen exercises exactly the telemetry a
// production deployment would read.
//
// The same workload can flow over the net:: serving tier (DESIGN.md §14)
// instead of direct calls: LoadgenMode::kLoopback runs the binary wire
// protocol against an in-process localhost NetServer, and kServe/kRemote
// split the soak across real processes/machines — identical traffic shape,
// think-time model and quantile reporting in every mode.
//
// The timing records of this traffic shape are perfbench's
// serve_hot_session (in-process, 4 threads on one 256-rank session) and
// serve_wire (over the wire) workloads, end to end, plus bench_net's
// kLoopback soaks in BENCH_net.json (1024 connections; /metrics scrape
// cost).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace protuner::apps {

/// Where the fetch/report traffic flows.
enum class LoadgenMode {
  /// Workers call harmony::Server directly (the PR-7 soak).
  kInProcess,
  /// Workers speak the wire protocol to a net::NetServer hosted on a
  /// loopback socket inside this same process — the full serialize/epoll/
  /// parse path with zero network distance.
  kLoopback,
  /// Host the sessions behind a net::NetServer on `port` and run the event
  /// loop; a remote kRemote loadgen (same sessions/ranks/rounds) drives
  /// the traffic.  No local workers.
  kServe,
  /// Drive traffic against a kServe loadgen at remote_host:port.  Latency
  /// quantiles come from the client-side wire histograms; the serve
  /// process prints the server-side view.
  kRemote,
};

struct LoadgenOptions {
  LoadgenMode mode = LoadgenMode::kInProcess;
  /// kServe: port to bind (required nonzero).  kRemote: the server's port.
  std::uint16_t port = 0;
  /// kRemote: the serving host.
  std::string remote_host = "127.0.0.1";

  std::size_t sessions = 4;   ///< concurrent tuning sessions
  std::size_t ranks = 16;     ///< ranks (clients) per session
  std::size_t workers = 2;    ///< worker threads per session (>= 1, <= ranks)
  std::size_t rounds = 200;   ///< rounds each session must complete
  std::size_t dims = 4;       ///< configuration dimensionality

  double think_mean = 50e-6;  ///< clean think time f (virtual seconds)
  double rho = 0.3;           ///< idle-system throughput of the noise model
  double alpha = 1.7;         ///< Pareto tail (alpha < 2: infinite variance)
  bool heavy_tail = true;     ///< false = NoNoise (deterministic think)
  /// Busy-wait for the drawn think time (open-loop-ish pacing).  Off by
  /// default: the soak then measures serving capacity, not think time.
  bool think_pacing = false;

  std::uint64_t seed = 42;

  /// Round deadline forwarded to ServerOptions (0 disables).
  std::chrono::duration<double> report_timeout{0.0};
  /// Ticker thread frequency for Server::tick() (0 = no ticker).
  double tick_hz = 0.0;
  /// Run a monitor thread sweeping stats_all() and Registry::snapshot().  It
  /// also prints a ~1 Hz live line to stderr: ops rate, wire bytes in/out
  /// rates, decode errors and flight-recorder stall dumps.
  bool monitor = false;
  /// HTTP scraper antagonist: GET /metrics against the in-process loop's
  /// exporter at this frequency (modes with a local NetServer only;
  /// 0 = off).  Each scrape is a fresh HTTP/1.0 connection demuxed by the
  /// same epoll loop that serves frames, so a nonzero rate measures the
  /// exporter's cost to frame throughput.
  double scrape_hz = 0.0;
};

/// One soak's results.  Latencies are nanoseconds from the obs::
/// histograms (log2 buckets: quantile error bounded by 2x, max exact).
struct LoadgenReport {
  double wall_seconds = 0.0;
  std::uint64_t fetch_ops = 0;
  std::uint64_t report_ops = 0;
  double ops_per_sec = 0.0;  ///< (fetch + report) / wall

  double fetch_p50_ns = 0.0;
  double fetch_p99_ns = 0.0;
  double fetch_p999_ns = 0.0;
  double fetch_max_ns = 0.0;

  double round_wall_p50_ns = 0.0;
  double round_wall_p99_ns = 0.0;
  double round_wall_p999_ns = 0.0;

  std::uint64_t rounds_completed = 0;  ///< summed over sessions
  std::uint64_t deadline_expiries = 0;
  std::uint64_t discarded_reports = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t monitor_sweeps = 0;  ///< stats+snapshot loops completed
  std::uint64_t ticks = 0;           ///< Server::tick() calls issued
  std::uint64_t scrapes = 0;         ///< successful HTTP /metrics GETs

  // Net tier (socket modes only; all zero for the in-process soak).
  // In kRemote runs the fetch/report wire quantiles are the client-side
  // call latencies; otherwise they are the server-side decode-to-reply
  // histograms.
  std::uint64_t net_connections = 0;
  std::uint64_t net_decode_errors = 0;
  std::uint64_t net_bytes_in = 0;
  std::uint64_t net_bytes_out = 0;
  std::uint64_t stall_dumps = 0;  ///< flight-recorder dumps by the loop
  double wire_fetch_p50_ns = 0.0;
  double wire_fetch_p99_ns = 0.0;
  double wire_fetch_p999_ns = 0.0;
  double wire_fetch_max_ns = 0.0;

  std::string summary() const;  ///< human-readable one-screen rendering
};

/// Runs the soak to completion and aggregates the report.  The run uses a
/// private obs::Registry, so repeated runs in one process do not pollute
/// each other (or the global registry).
LoadgenReport run_loadgen(const LoadgenOptions& options);

}  // namespace protuner::apps
