// Network serving tier for harmony:: — a single-threaded, level-triggered
// epoll event loop translating the binary wire protocol (net/frame.h) into
// the existing zero-allocation harmony::Server fetch/report calls
// (DESIGN.md §14).
//
// Architecture: ONE loop thread owns everything mutable here — the listen
// socket, the epoll set, every connection's buffers and parked fetches.
// harmony::Server and harmony::SessionManager are internally thread-safe,
// so the loop calls straight into them; nothing in net:: takes a lock.
// Thousands of connections multiplex on the one loop (C10k-style): a
// connection is a pooled pair of byte buffers plus protocol state, not a
// thread.
//
// Blocking is forbidden on the loop, so the blocking part of the Harmony
// protocol — fetch() waiting for the next round to open — becomes a parked
// request: Server::try_fetch_into() either serves the open round or the
// loop parks the (connection, rank) pair and answers it when the session's
// round counter advances (checked once per poll iteration; the counter is
// a relaxed atomic read).  Deadlines are enforced the same way a tick
// driver would: the loop calls Server::tick() every 5 ms poll, and a
// connection that dies mid-round is simply a straggler for the PR-3
// deadline/imputation machinery — never a server error.
//
// Error containment: a malformed frame or a harmony::ProtocolError maps to
// one Error frame (best-effort flush) plus connection close.  The loop
// never throws out of run(), never corrupts a session, and never dies on
// client behaviour.
//
// Steady-state hot path is allocation-free: connection buffers, parked
// lists, the epoll event array and the one configuration scratch Point are
// all warm after the first rounds; decoding yields views, encoding appends
// into recycled capacity, and closed connections return their buffers to a
// pool for the next accept.
#pragma once

#include <sys/epoll.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/types.h"
#include "harmony/session_manager.h"
#include "net/frame.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace protuner::net {

/// Transport-level failure (bind/listen/epoll errors, address in use).
/// Client misbehaviour is NOT a NetError — it closes the one connection.
class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct NetServerOptions {
  /// Address to bind; the default serves loopback only.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Registry the wire telemetry is registered in; null means
  /// obs::Registry::global().  Use the same registry the hosted sessions
  /// record into so one Registry::snapshot() sees the net tier and the
  /// sessions together — and so the in-loop /metrics page serves
  /// everything in one exposition.
  obs::Registry* metrics = nullptr;
  /// Flight recorder the loop's control-plane events land in; null means
  /// obs::FlightRecorder::global() (which SIGUSR1 dumps target).
  obs::FlightRecorder* flight = nullptr;
};

class NetServer {
 public:
  /// Stall watchdog: a session whose round watermark has not advanced for
  /// report_timeout × kStallFactor while connections are attached is
  /// declared stalled — the flight recorder dumps to stderr once per
  /// episode and /healthz answers 503 until the watermark moves again.
  /// Sessions without a report deadline are never declared stalled.
  static constexpr double kStallFactor = 4.0;
  /// Cap on the number of distinct registry series Stats pushes may create,
  /// per client of a session: a session of width W may mint
  /// `kMaxStatsSeries × W` series in total, across all the connections
  /// ever attached to it — the series-churn counterpart of the frame cap.
  /// Without it a buggy or adversarial client minting unique metric
  /// names/label sets grows server memory (and the /metrics page) without
  /// bound, and counting per session rather than per connection keeps a
  /// client that reconnects from getting a fresh budget each time.
  /// Merging into existing series is never limited; a push that would
  /// exceed the cap is rejected and the connection closed.
  static constexpr std::size_t kMaxStatsSeries = 256;

  /// Binds and listens immediately (port() is valid after construction);
  /// the loop itself starts in run().  Sessions are resolved by name in
  /// `manager` at Attach time — create them before clients connect.
  NetServer(harmony::SessionManager& manager, NetServerOptions options = {});
  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  std::uint16_t port() const { return port_; }

  /// Runs the event loop on the calling thread until stop() is called.
  void run();
  /// run() with an exit predicate, checked once per poll iteration (on the
  /// loop thread — it may touch loop-owned state via the counters below).
  void run_until(const std::function<bool()>& done);
  /// Thread-safe: wakes the loop and makes run() return.  Idempotent.
  void stop();

  /// Loop-lifetime counters (also exported via obs::, these accessors are
  /// for tests and drivers; safe from any thread).
  std::uint64_t connections_accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  std::uint64_t connections_closed() const {
    return closed_.load(std::memory_order_relaxed);
  }
  std::uint64_t decode_errors() const {
    return decode_errors_.load(std::memory_order_relaxed);
  }
  /// Flight-recorder dumps performed by this loop (stall watchdog episodes
  /// plus SIGUSR1 requests).
  std::uint64_t stall_dumps() const {
    return stall_dumps_.load(std::memory_order_relaxed);
  }

 private:
  // How a connection's first bytes classified it.  The wire protocol's
  // length prefix makes the split unambiguous: "GET " read as a u32 length
  // is ~542 MB, far beyond kMaxFrameBytes, so no valid frame starts with it.
  static constexpr std::uint8_t kModeUnknown = 0;
  static constexpr std::uint8_t kModeFrames = 1;
  static constexpr std::uint8_t kModeHttp = 2;
  /// Cap on a buffered HTTP request (we only serve bare GETs).
  static constexpr std::size_t kMaxHttpRequest = 8192;
  struct ParkedFetch {
    std::uint32_t rank = 0;
    std::uint64_t entered = 0;  ///< LatencyClock stamp at frame decode
  };

  struct Connection;

  // One hosted session as seen by the loop: the pinned server handle, its
  // wire-latency instruments (resolved once, at first attach), the parked
  // list and the round counter watermark that triggers its retry sweep.
  struct SessionEntry {
    std::string name;
    /// Null once the session was removed with nobody attached (released at
    /// the next due tick); the next attach under `name` rebinds it.
    std::shared_ptr<harmony::Server> server;
    obs::Histogram* fetch_wire_ns = nullptr;
    obs::Histogram* report_wire_ns = nullptr;
    std::size_t last_rounds = 0;
    std::size_t stats_series = 0;  ///< registry series its pushes minted
    std::vector<Connection*> parked;  ///< connections with parked fetches
    // Stall watchdog state (loop thread only).
    std::size_t attached_conns = 0;   ///< live connections bound to this entry
    std::chrono::steady_clock::time_point last_advance{};
    bool stalled = false;             ///< one dump per stall episode
  };

  struct Connection {
    int fd = -1;
    bool closed = false;        ///< destroy deferred to end of batch
    bool draining = false;      ///< close once the out buffer flushes
    bool want_write = false;    ///< EPOLLOUT armed
    bool in_parked_list = false;
    std::uint8_t mode = kModeUnknown;        ///< frames vs HTTP demux
    int entry = -1;             ///< index into sessions_ once attached
    std::vector<std::uint8_t> in;
    std::size_t in_used = 0;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
    std::vector<ParkedFetch> parked;
  };

  void loop_iteration();
  void handle_listen();
  void handle_readable(Connection* c);
  void handle_writable(Connection* c);
  void handle_frame(Connection* c, const Frame& f);
  void handle_attach(Connection* c, const Frame& f);
  void handle_fetch(Connection* c, const Frame& f, std::uint64_t entered);
  void handle_report(Connection* c, const Frame& f, std::uint64_t entered);
  void handle_stats(Connection* c, const Frame& f);
  /// Serves one buffered HTTP GET (/metrics, /healthz, /sessions) and puts
  /// the connection into draining (HTTP/1.0: one request, then close).
  void handle_http(Connection* c);
  void http_respond(Connection* c, int status, std::string_view reason,
                    std::string_view content_type, std::string_view body);
  /// True when the frame's session field names the bound session (empty
  /// means "the bound session").
  bool session_matches(const Connection* c, const Frame& f) const;
  /// Sends an Error frame (best-effort) and closes the connection.
  void error_close(Connection* c, std::string_view why);
  void close_conn(Connection* c);
  void destroy_pending();
  /// Writes as much of c->out as the socket accepts; arms/disarms EPOLLOUT.
  void flush_out(Connection* c);
  void park_fetch(Connection* c, std::uint32_t rank, std::uint64_t entered);
  /// Re-runs every parked fetch of `e`; called when its round advances.
  void retry_parked(SessionEntry& e);
  /// Round-advance sweep + deadline ticks, once per poll iteration.
  void sweep_sessions(bool tick_due);
  /// Declares `e` stalled (and dumps the flight recorder) when its round
  /// watermark has sat still past report_timeout × kStallFactor.
  void check_stall(SessionEntry& e, std::chrono::steady_clock::time_point now);
  void dump_flight(const char* why);
  void epoll_update(Connection* c, bool want_write);
  int entry_index_for(std::string_view name);

  harmony::SessionManager& manager_;
  const NetServerOptions options_;
  obs::Registry& registry_;
  obs::FlightRecorder& flight_;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};

  std::vector<std::unique_ptr<Connection>> conns_;  ///< indexed by fd
  std::vector<std::unique_ptr<Connection>> pool_;   ///< warm buffer reuse
  std::vector<Connection*> pending_destroy_;
  std::vector<SessionEntry> sessions_;
  core::Point scratch_;
  std::vector<epoll_event> events_;
  std::chrono::steady_clock::time_point last_tick_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> closed_{0};
  std::atomic<std::uint64_t> decode_errors_{0};
  std::atomic<std::uint64_t> stall_dumps_{0};

  obs::Counter& obs_bytes_in_;
  obs::Counter& obs_bytes_out_;
  obs::Counter& obs_accepted_;
  obs::Counter& obs_closed_;
  obs::Counter& obs_decode_errors_;
  obs::Counter& obs_stall_dumps_;
};

}  // namespace protuner::net
