// Client side of the harmony wire protocol (net/frame.h, DESIGN.md §14):
// a blocking, single-connection library a tuning client process links to
// speak fetch/report with a remote NetServer.
//
// The call surface deliberately mirrors harmony::Server so in-process code
// ports to remote serving by swapping the handle: attach() then
// fetch_into()/report() per measurement, detach() when done.  fetch_into()
// blocks until the server opens the round for this rank — exactly like the
// in-process fetch — bounded by kIoTimeout.
//
// Error mapping: an Error frame from the server carries a harmony protocol
// diagnostic and is rethrown as harmony::ProtocolError, so remote clients
// see the identical exception type in-process clients do.  Transport
// failures (refused, reset, timeout, malformed reply) are NetError.
//
// One connection may drive many ranks (each frame carries the rank), which
// is how the load generator multiplexes a worker's rank slice over a single
// socket.  Calls are synchronous request/reply; the class is not
// thread-safe — one owner thread per client.
//
// Steady-state fetch/report is allocation-free: the encode and decode
// buffers are reused across calls and replies are parsed in place.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "core/types.h"
#include "net/frame.h"
#include "net/net_server.h"  // NetError
#include "obs/metrics.h"

namespace protuner::net {

/// Window during which the constructor's connect retries (the server
/// process may still be binding when a forked client starts).
inline constexpr std::chrono::milliseconds kConnectTimeout{5000};
/// Bound on each blocking send/receive.  fetch_into() waits up to this long
/// for the server to open the round.
inline constexpr std::chrono::milliseconds kIoTimeout{60000};

struct ClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// When set, the client records its end-to-end call latencies as
  /// protuner_net_client_{fetch,report}_ns{session=...} in this registry.
  /// It is also the registry the telemetry push ships from (see
  /// push_stats): detach — and any push_stats call — sends the delta since
  /// the last push as a Stats frame, which the server merges under
  /// {client="<rank>"} labels.  Give the client its OWN registry (as a
  /// separate client process naturally would), not one a co-resident
  /// server merges pushes into — pushing a registry you are merged into
  /// echoes the merged series back on every push.
  obs::Registry* metrics = nullptr;
};

class HarmonyClient {
 public:
  /// Connects immediately, retrying inside kConnectTimeout.  Throws
  /// NetError when the server never becomes reachable.
  explicit HarmonyClient(ClientOptions options);
  ~HarmonyClient();
  HarmonyClient(const HarmonyClient&) = delete;
  HarmonyClient& operator=(const HarmonyClient&) = delete;

  /// Binds this connection to `session` and registers interest for `rank`.
  /// Returns the session's expected client count (P).  Further frames omit
  /// the session name.
  std::uint32_t attach(const std::string& session, std::uint32_t rank);

  /// Blocks until the server assigns `rank` a configuration for the
  /// current round.  harmony::ProtocolError mirrors the in-process
  /// misuse/deadline failures; NetError covers the transport.
  void fetch_into(std::uint32_t rank, core::Point& out);

  /// Reports the measured time for `rank`'s outstanding configuration and
  /// waits for the server's ack (keeping the call ordering identical to
  /// the in-process API).
  void report(std::uint32_t rank, double time);

  /// Graceful goodbye: pushes any outstanding metric deltas, then the
  /// server acks and closes; so does the client.
  void detach(std::uint32_t rank);

  /// Ships the delta of Options::metrics since the last push as a Stats
  /// frame and waits for the ack.  No-op when disconnected or no registry
  /// was configured; a quiet period (empty delta) sends nothing.  detach()
  /// calls this; call it directly for mid-run pushes.
  void push_stats(std::uint32_t rank);

  /// Drops the connection without the detach handshake (the server treats
  /// it as a dead client: a straggler if mid-round).  Idempotent.
  void close();

  bool connected() const { return fd_ >= 0; }

 private:
  void connect_with_retry();
  void send_buffer();
  /// Receives exactly one frame (handles partial and coalesced reads).
  const Frame& recv_frame();
  /// recv_frame + Error-frame mapping + type check.
  const Frame& expect_reply(MsgType type);

  ClientOptions options_;
  int fd_ = -1;
  std::string session_;
  std::vector<std::uint8_t> out_;
  std::vector<std::uint8_t> in_;
  std::size_t in_used_ = 0;
  std::size_t consumed_ = 0;  ///< bytes of in_ owned by the last frame
  Frame frame_;               ///< views into in_; valid until the next call
  obs::Histogram* fetch_ns_ = nullptr;
  obs::Histogram* report_ns_ = nullptr;
  WireTrace last_trace_;      ///< trailer of the last fetch reply
  bool has_last_trace_ = false;
  obs::RegistrySnapshot last_pushed_;  ///< baseline for the next stats delta
  std::vector<std::uint8_t> stats_body_;
};

}  // namespace protuner::net
