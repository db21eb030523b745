#include "net/net_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iostream>
#include <sstream>

#include "net/stats_codec.h"
#include "obs/fast_clock.h"
#include "obs/trace.h"

namespace protuner::net {

namespace {

/// listen(2) backlog of the serving socket.
constexpr int kBacklog = 1024;
/// epoll_wait timeout: the cadence of deadline ticks and parked-fetch
/// sweeps when the loop is otherwise idle.
constexpr std::chrono::milliseconds kPollInterval{5};

[[noreturn]] void throw_errno(const char* what) {
  throw NetError(std::string(what) + ": " + std::strerror(errno));
}

double wire_ns(std::uint64_t entered) {
  return obs::LatencyClock::to_ns(obs::LatencyClock::now() - entered);
}

obs::Registry& resolve_registry(const NetServerOptions& options) {
  return options.metrics != nullptr ? *options.metrics
                                    : obs::Registry::global();
}

obs::FlightRecorder& resolve_flight(const NetServerOptions& options) {
  return options.flight != nullptr ? *options.flight
                                   : obs::FlightRecorder::global();
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(ch);
    } else if (c < 0x20) {
      static const char hex[] = "0123456789abcdef";
      out += "\\u00";
      out.push_back(hex[c >> 4]);
      out.push_back(hex[c & 15]);
    } else {
      out.push_back(ch);
    }
  }
}

}  // namespace

NetServer::NetServer(harmony::SessionManager& manager,
                     NetServerOptions options)
    : manager_(manager),
      options_(std::move(options)),
      registry_(resolve_registry(options_)),
      flight_(resolve_flight(options_)),
      obs_bytes_in_(registry_.counter("protuner_net_bytes_in_total",
                                      "Bytes received by the net tier")),
      obs_bytes_out_(registry_.counter("protuner_net_bytes_out_total",
                                       "Bytes sent by the net tier")),
      obs_accepted_(registry_.counter(
          "protuner_net_connections_accepted_total",
          "Connections accepted by the net tier")),
      obs_closed_(registry_.counter("protuner_net_connections_closed_total",
                                    "Connections closed by the net tier")),
      obs_decode_errors_(registry_.counter(
          "protuner_net_decode_errors_total",
          "Malformed frames that closed their connection")),
      obs_stall_dumps_(registry_.counter(
          "protuner_stall_dumps_total",
          "Flight-recorder dumps (stall watchdog episodes and SIGUSR1)")) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) throw_errno("eventfd");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) throw_errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    throw NetError("bad bind address: " + options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    throw_errno("bind");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, kBacklog) < 0) throw_errno("listen");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = &listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    throw_errno("epoll_ctl(listen)");
  }
  ev.data.ptr = &wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    throw_errno("epoll_ctl(wake)");
  }
  events_.resize(256);
  last_tick_ = std::chrono::steady_clock::now();
  // Pre-pay the TSC calibration so the first wire-latency stamp is honest.
  obs::LatencyClock::ns_per_tick();
}

NetServer::~NetServer() {
  for (auto& c : conns_) {
    if (c && c->fd >= 0) ::close(c->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void NetServer::run() { run_until({}); }

void NetServer::run_until(const std::function<bool()>& done) {
  // Arm the operator escape hatch: SIGUSR1 flags the global recorder and
  // the loop performs the (allocating) dump from normal context below.
  obs::FlightRecorder::install_sigusr1_handler();
  while (!stopping_.load(std::memory_order_relaxed)) {
    loop_iteration();
    if (done && done()) break;
  }
}

void NetServer::stop() {
  stopping_.store(true, std::memory_order_relaxed);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void NetServer::loop_iteration() {
  const int n = ::epoll_wait(epoll_fd_, events_.data(),
                             static_cast<int>(events_.size()),
                             static_cast<int>(kPollInterval.count()));
  if (n < 0 && errno != EINTR) {
    // epoll itself failing is unrecoverable for the loop; stop cleanly
    // rather than spin on the error.
    stopping_.store(true, std::memory_order_relaxed);
    return;
  }
  for (int i = 0; i < n; ++i) {
    void* p = events_[i].data.ptr;
    if (p == &listen_fd_) {
      handle_listen();
      continue;
    }
    if (p == &wake_fd_) {
      std::uint64_t drained = 0;
      [[maybe_unused]] const ssize_t r =
          ::read(wake_fd_, &drained, sizeof(drained));
      continue;
    }
    Connection* c = static_cast<Connection*>(p);
    if (c->closed) continue;  // closed earlier in this batch
    if (events_[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
      handle_readable(c);
    }
    if (!c->closed && (events_[i].events & EPOLLOUT)) handle_writable(c);
  }
  const auto now = std::chrono::steady_clock::now();
  const bool tick_due = now - last_tick_ >= kPollInterval;
  if (tick_due) last_tick_ = now;
  sweep_sessions(tick_due);
  if (flight_.consume_dump_request()) dump_flight("SIGUSR1");
  destroy_pending();
}

void NetServer::handle_listen() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN, or a transient accept error: epoll will re-fire
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (static_cast<std::size_t>(fd) >= conns_.size()) {
      conns_.resize(static_cast<std::size_t>(fd) + 1);
    }
    std::unique_ptr<Connection> c;
    if (!pool_.empty()) {
      c = std::move(pool_.back());
      pool_.pop_back();
    } else {
      c = std::make_unique<Connection>();
    }
    c->fd = fd;
    if (c->in.size() < 4096) c->in.resize(4096);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = c.get();
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      c->fd = -1;
      pool_.push_back(std::move(c));
      continue;
    }
    conns_[static_cast<std::size_t>(fd)] = std::move(c);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    obs_accepted_.add();
  }
}

void NetServer::handle_readable(Connection* c) {
  while (!c->closed) {
    if (c->in_used == c->in.size()) {
      // A partial frame larger than the buffer: grow toward the frame cap.
      // decode_frame rejects length > kMaxFrameBytes from the first 4
      // bytes, so the buffer never needs more than the cap plus its length
      // prefix.
      const std::size_t cap = 4 + kMaxFrameBytes;
      if (c->in.size() >= cap) {
        obs_decode_errors_.add();
        decode_errors_.fetch_add(1, std::memory_order_relaxed);
        flight_.record("error/decode",
                       c->entry >= 0
                           ? std::string_view(
                                 sessions_[static_cast<std::size_t>(c->entry)]
                                     .name)
                           : std::string_view{});
        error_close(c, "frame exceeds the size cap");
        return;
      }
      c->in.resize(std::min(cap, c->in.size() * 2));
    }
    const std::size_t want = c->in.size() - c->in_used;
    const ssize_t n = ::recv(c->fd, c->in.data() + c->in_used, want, 0);
    if (n == 0) {
      // Peer closed.  If it held an unreported assignment it is now a
      // straggler; the deadline machinery (tick sweep) handles the round.
      close_conn(c);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_conn(c);
      return;
    }
    c->in_used += static_cast<std::size_t>(n);
    obs_bytes_in_.add(static_cast<std::uint64_t>(n));

    // First bytes classify the connection: "GET " cannot start a frame
    // (as a u32 length it dwarfs kMaxFrameBytes), so the one listen port
    // serves the wire protocol and plain HTTP scrapes side by side.
    if (c->mode == kModeUnknown && c->in_used >= 4) {
      c->mode = std::memcmp(c->in.data(), "GET ", 4) == 0 ? kModeHttp
                                                          : kModeFrames;
    }
    if (c->mode != kModeFrames) {
      if (c->mode == kModeHttp) {
        handle_http(c);
        if (c->closed) return;
      }
      if (static_cast<std::size_t>(n) < want) break;
      continue;
    }

    std::size_t off = 0;
    while (!c->closed) {
      const Decoded d = decode_frame({c->in.data() + off, c->in_used - off});
      if (d.status == DecodeStatus::kFrame) {
        handle_frame(c, d.frame);
        off += d.consumed;
        continue;
      }
      if (d.status == DecodeStatus::kBadFrame) {
        obs_decode_errors_.add();
        decode_errors_.fetch_add(1, std::memory_order_relaxed);
        flight_.record("error/decode",
                       c->entry >= 0
                           ? std::string_view(
                                 sessions_[static_cast<std::size_t>(c->entry)]
                                     .name)
                           : std::string_view{});
        error_close(c, d.error);
        return;
      }
      break;  // kNeedMore
    }
    if (c->closed) return;
    if (off > 0) {
      std::memmove(c->in.data(), c->in.data() + off, c->in_used - off);
      c->in_used -= off;
    }
    if (static_cast<std::size_t>(n) < want) break;  // socket drained
  }
  if (!c->closed && c->out.size() > c->out_off) flush_out(c);
}

void NetServer::handle_writable(Connection* c) { flush_out(c); }

void NetServer::handle_frame(Connection* c, const Frame& f) {
  const std::uint64_t entered = obs::LatencyClock::now();
  switch (f.type) {
    case MsgType::kAttach:
      handle_attach(c, f);
      return;
    case MsgType::kFetch:
      handle_fetch(c, f, entered);
      return;
    case MsgType::kReport:
      handle_report(c, f, entered);
      return;
    case MsgType::kStats:
      handle_stats(c, f);
      return;
    case MsgType::kDetach:
      append_simple(c->out, MsgType::kDetach, f.rank, {});
      c->draining = true;  // close once the ack flushes
      return;
    case MsgType::kError:
      close_conn(c);  // the client aborted its side
      return;
  }
  error_close(c, "unknown message type");
}

void NetServer::handle_attach(Connection* c, const Frame& f) {
  if (c->entry >= 0) {
    error_close(c, "attach: connection is already attached");
    return;
  }
  if (f.session.empty()) {
    error_close(c, "attach: a session name is required");
    return;
  }
  const int idx = entry_index_for(f.session);
  if (idx < 0) {
    error_close(c, "attach: unknown session");
    return;
  }
  c->entry = idx;
  ++sessions_[static_cast<std::size_t>(idx)].attached_conns;
  append_attach_ack(
      c->out, f.rank,
      static_cast<std::uint32_t>(sessions_[idx].server->clients()));
}

int NetServer::entry_index_for(std::string_view name) {
  std::shared_ptr<harmony::Server> server;
  try {
    server = manager_.attach(std::string(name));  // counts the attachment
  } catch (const harmony::SessionError&) {
    return -1;
  }
  std::size_t i = 0;
  while (i < sessions_.size() && sessions_[i].name != name) ++i;
  if (i == sessions_.size()) {
    SessionEntry& e = sessions_.emplace_back();
    e.name.assign(name);
    const obs::Labels labels{{"session", e.name}};
    e.fetch_wire_ns = &registry_.histogram(
        "protuner_net_fetch_wire_ns",
        "Fetch wire latency: frame decoded to reply queued, including the "
        "wait for the round to open (ns)",
        labels);
    e.report_wire_ns = &registry_.histogram(
        "protuner_net_report_wire_ns",
        "Report wire latency: frame decoded to ack queued (ns)", labels);
  }
  SessionEntry& e = sessions_[i];
  if (e.server != server) {
    // A new entry, a released one, or its session was removed and
    // re-created under the same name.  remove() required a zero attach
    // count, so no connection still uses the old server; rebinding drops
    // the loop's pin on it.
    e.server = std::move(server);
    e.last_rounds = e.server->rounds_completed();
    e.last_advance = std::chrono::steady_clock::now();
    e.stalled = false;
  }
  return static_cast<int>(i);
}

bool NetServer::session_matches(const Connection* c, const Frame& f) const {
  return f.session.empty() ||
         f.session == sessions_[static_cast<std::size_t>(c->entry)].name;
}

void NetServer::handle_fetch(Connection* c, const Frame& f,
                             std::uint64_t entered) {
  if (c->entry < 0) {
    error_close(c, "fetch: attach first");
    return;
  }
  if (!session_matches(c, f)) {
    error_close(c, "fetch: frame names a different session");
    return;
  }
  SessionEntry& e = sessions_[static_cast<std::size_t>(c->entry)];
  try {
    obs::TraceContext trace;
    if (e.server->try_fetch_into(f.rank, scratch_, trace)) {
      const WireTrace wt{trace.trace_id, trace.span_id};
      append_config(c->out, f.rank, scratch_, trace ? &wt : nullptr);
      e.fetch_wire_ns->record(wire_ns(entered));
    } else {
      park_fetch(c, f.rank, entered);
    }
  } catch (const harmony::ProtocolError& ex) {
    error_close(c, ex.what());
  }
}

void NetServer::handle_report(Connection* c, const Frame& f,
                              std::uint64_t entered) {
  if (c->entry < 0) {
    error_close(c, "report: attach first");
    return;
  }
  if (!session_matches(c, f)) {
    error_close(c, "report: frame names a different session");
    return;
  }
  double time = 0.0;
  if (!parse_f64_body(f.body, time)) {
    obs_decode_errors_.add();
    decode_errors_.fetch_add(1, std::memory_order_relaxed);
    error_close(c, "report: malformed body");
    return;
  }
  SessionEntry& e = sessions_[static_cast<std::size_t>(c->entry)];
  try {
    // The client's trailer names the round it measured; installing it here
    // threads the server-side report span into the same trace.
    const obs::ScopedTraceContext ctx(
        f.has_trace ? obs::TraceContext{f.trace.trace_id, f.trace.span_id}
                    : obs::TraceContext{});
    e.server->report(f.rank, time);
    append_simple(c->out, MsgType::kReport, f.rank, {});
    e.report_wire_ns->record(wire_ns(entered));
  } catch (const harmony::ProtocolError& ex) {
    error_close(c, ex.what());
  }
}

void NetServer::handle_stats(Connection* c, const Frame& f) {
  if (c->entry < 0) {
    error_close(c, "stats: attach first");
    return;
  }
  if (!session_matches(c, f)) {
    error_close(c, "stats: frame names a different session");
    return;
  }
  obs::RegistrySnapshot snap;
  if (!decode_stats(f.body, snap)) {
    obs_decode_errors_.add();
    decode_errors_.fetch_add(1, std::memory_order_relaxed);
    error_close(c, "stats: malformed body");
    return;
  }
  SessionEntry& e = sessions_[static_cast<std::size_t>(c->entry)];
  // Every client slot costs the server per-rank state, so the product
  // cannot overflow.
  const std::size_t cap = kMaxStatsSeries * e.server->clients();
  const std::size_t budget = cap > e.stats_series ? cap - e.stats_series : 0;
  obs::Registry::MergeResult merged;
  try {
    merged = registry_.merge_from(
        snap, {{"client", std::to_string(f.rank)}}, budget);
  } catch (const std::exception& ex) {
    // A kind collision with an already-registered instrument throws; like
    // every other client misbehaviour it costs the one connection, never
    // the loop (an escaped exception here would std::terminate the server).
    obs_decode_errors_.add();
    decode_errors_.fetch_add(1, std::memory_order_relaxed);
    flight_.record("error/decode", std::string_view(e.name));
    error_close(c, ex.what());
    return;
  }
  e.stats_series += merged.created;
  if (merged.dropped != 0) {
    // Rejected instruments (hostile identifier or value, or series past
    // the session's minting cap) are treated like a malformed body.
    obs_decode_errors_.add();
    decode_errors_.fetch_add(1, std::memory_order_relaxed);
    flight_.record("error/decode", std::string_view(e.name));
    error_close(c, "stats: push rejected (bad instrument or series cap)");
    return;
  }
  append_simple(c->out, MsgType::kStats, f.rank, {});
}

// ------------------------------------------------------------- HTTP scrapes
// The observability plane, served from the same loop: no scraper thread, no
// blocking, just another readable fd.  HTTP/1.0, GET only, one request per
// connection (the response carries Connection: close and the existing
// draining machinery tears the socket down once it flushes).  Allocation
// here is fine — scrapes are the control plane, not the per-fetch data path.

void NetServer::handle_http(Connection* c) {
  const std::string_view req(reinterpret_cast<const char*>(c->in.data()),
                             c->in_used);
  const std::size_t head_end = req.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    if (c->in_used > kMaxHttpRequest) close_conn(c);
    return;  // headers still in flight
  }
  // Request line: "GET <path> HTTP/1.x".  Classification guarantees the
  // method; anything unparseable gets a 400 rather than a frame Error.
  const std::size_t line_end = req.find("\r\n");
  const std::string_view line = req.substr(0, line_end);
  const std::size_t path_begin = line.find(' ');
  const std::size_t path_end =
      path_begin == std::string_view::npos
          ? std::string_view::npos
          : line.find(' ', path_begin + 1);
  if (path_end == std::string_view::npos) {
    http_respond(c, 400, "Bad Request", "text/plain", "bad request\n");
    return;
  }
  std::string_view path = line.substr(path_begin + 1,
                                      path_end - path_begin - 1);
  if (const std::size_t q = path.find('?'); q != std::string_view::npos) {
    path = path.substr(0, q);
  }

  if (path == "/metrics") {
    std::ostringstream body;
    obs::render_prometheus(body, registry_.snapshot());
    http_respond(c, 200, "OK", "text/plain; version=0.0.4", body.str());
    return;
  }
  if (path == "/healthz") {
    bool stalled = false;
    for (const SessionEntry& e : sessions_) {
      stalled = stalled || (e.server && e.stalled);
    }
    if (stalled) {
      http_respond(c, 503, "Service Unavailable", "text/plain", "stalled\n");
    } else {
      http_respond(c, 200, "OK", "text/plain", "ok\n");
    }
    return;
  }
  if (path == "/sessions") {
    std::string body = "[";
    bool first = true;
    for (const auto& s : manager_.stats_all()) {
      if (!first) body += ',';
      first = false;
      body += "{\"name\":\"";
      append_json_escaped(body, s.name);
      body += "\",\"strategy\":\"";
      append_json_escaped(body, s.strategy);
      body += "\",\"clients\":" + std::to_string(s.clients);
      body += ",\"active_ranks\":" + std::to_string(s.active_ranks);
      body += ",\"attached\":" + std::to_string(s.attached);
      body += ",\"rounds\":" + std::to_string(s.rounds);
      body += ",\"total_time\":" + std::to_string(s.total_time);
      body += ",\"converged\":";
      body += s.converged ? "true" : "false";
      body += '}';
    }
    body += "]\n";
    http_respond(c, 200, "OK", "application/json", body);
    return;
  }
  http_respond(c, 404, "Not Found", "text/plain", "not found\n");
}

void NetServer::http_respond(Connection* c, int status,
                             std::string_view reason,
                             std::string_view content_type,
                             std::string_view body) {
  std::string head = "HTTP/1.0 " + std::to_string(status) + ' ';
  head += reason;
  head += "\r\nContent-Type: ";
  head += content_type;
  head += "\r\nContent-Length: " + std::to_string(body.size());
  head += "\r\nConnection: close\r\n\r\n";
  c->out.insert(c->out.end(), head.begin(), head.end());
  c->out.insert(c->out.end(), body.begin(), body.end());
  c->in_used = 0;          // the one request is consumed
  c->draining = true;      // close once the response flushes
  flush_out(c);
}

void NetServer::park_fetch(Connection* c, std::uint32_t rank,
                           std::uint64_t entered) {
  SessionEntry& e = sessions_[static_cast<std::size_t>(c->entry)];
  c->parked.push_back({rank, entered});
  if (!c->in_parked_list) {
    e.parked.push_back(c);
    c->in_parked_list = true;
  }
  flight_.record("fetch/park", e.name, rank, e.server->rounds_completed());
}

void NetServer::retry_parked(SessionEntry& e) {
  std::size_t keep = 0;
  for (std::size_t ci = 0; ci < e.parked.size(); ++ci) {
    Connection* c = e.parked[ci];
    if (c->closed) continue;  // purged at end of batch
    std::size_t w = 0;
    for (std::size_t i = 0; i < c->parked.size() && !c->closed; ++i) {
      const ParkedFetch pf = c->parked[i];
      try {
        obs::TraceContext trace;
        if (e.server->try_fetch_into(pf.rank, scratch_, trace)) {
          const WireTrace wt{trace.trace_id, trace.span_id};
          append_config(c->out, pf.rank, scratch_, trace ? &wt : nullptr);
          e.fetch_wire_ns->record(wire_ns(pf.entered));
        } else {
          c->parked[w++] = pf;
        }
      } catch (const harmony::ProtocolError& ex) {
        error_close(c, ex.what());  // marks closed; loop exits
      }
    }
    if (c->closed) continue;
    c->parked.resize(w);
    if (w > 0) {
      e.parked[keep++] = c;
    } else {
      c->in_parked_list = false;
    }
    if (c->out.size() > c->out_off) flush_out(c);
  }
  e.parked.resize(keep);
}

void NetServer::sweep_sessions(bool tick_due) {
  const auto now = std::chrono::steady_clock::now();
  for (SessionEntry& e : sessions_) {
    if (!e.server) continue;  // released; the next attach rebinds it
    if (tick_due && e.attached_conns == 0 && e.parked.empty() &&
        manager_.find(e.name) != e.server) {
      // Removed (or replaced) with nobody attached: drop the loop's pin so
      // the server is freed.  The slot stays because Connection::entry
      // indexes sessions_.
      e.server.reset();
      continue;
    }
    if (tick_due) {
      try {
        e.server->tick();
      } catch (const harmony::ProtocolError&) {
        // Poisoned session: parked retries below surface the failure to
        // each waiting client as an Error frame.
      }
    }
    const std::size_t rounds = e.server->rounds_completed();
    const bool advanced = rounds != e.last_rounds;
    e.last_rounds = rounds;
    if (advanced) {
      e.last_advance = now;
      e.stalled = false;  // the stall episode (if any) is over
    }
    if (!e.parked.empty() && (advanced || tick_due)) retry_parked(e);
    if (tick_due && !e.stalled) check_stall(e, now);
  }
}

void NetServer::check_stall(SessionEntry& e,
                            std::chrono::steady_clock::time_point now) {
  if (e.attached_conns == 0) return;  // nobody is driving: idle, not stalled
  const auto deadline = e.server->report_timeout();
  if (deadline <= std::chrono::duration<double>::zero()) return;
  if (std::chrono::duration<double>(now - e.last_advance) <
      deadline * kStallFactor) {
    return;
  }
  e.stalled = true;
  flight_.record("stall/dump", e.name,
                 static_cast<std::uint32_t>(e.attached_conns), e.last_rounds);
  dump_flight(e.name.c_str());
}

void NetServer::dump_flight(const char* why) {
  stall_dumps_.fetch_add(1, std::memory_order_relaxed);
  obs_stall_dumps_.add();
  std::cerr << "protuner: flight-recorder dump (" << why << ")\n";
  flight_.dump(std::cerr);
}

void NetServer::flush_out(Connection* c) {
  if (c->closed) return;
  while (c->out_off < c->out.size()) {
    const ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                             c->out.size() - c->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c->out_off += static_cast<std::size_t>(n);
      obs_bytes_out_.add(static_cast<std::uint64_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!c->want_write) {
        c->want_write = true;
        epoll_update(c, true);
      }
      return;
    }
    close_conn(c);
    return;
  }
  c->out.clear();
  c->out_off = 0;
  if (c->want_write) {
    c->want_write = false;
    epoll_update(c, false);
  }
  if (c->draining) close_conn(c);
}

void NetServer::epoll_update(Connection* c, bool want_write) {
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.ptr = c;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev);
}

void NetServer::error_close(Connection* c, std::string_view why) {
  if (c->closed) return;
  append_error(c->out, 0, why);
  // Best-effort flush: the peer deserves the diagnostic, but a blocked
  // socket must not stall the loop — the close proceeds regardless.
  while (c->out_off < c->out.size()) {
    const ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                             c->out.size() - c->out_off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      c->out_off += static_cast<std::size_t>(n);
      obs_bytes_out_.add(static_cast<std::uint64_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  close_conn(c);
}

void NetServer::close_conn(Connection* c) {
  if (c->closed) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
  if (c->entry >= 0) {
    SessionEntry& e = sessions_[static_cast<std::size_t>(c->entry)];
    if (e.attached_conns > 0) --e.attached_conns;
    try {
      manager_.detach(e.name);
    } catch (const harmony::SessionError&) {
    }
  }
  c->closed = true;
  c->in_parked_list = false;
  c->parked.clear();
  closed_.fetch_add(1, std::memory_order_relaxed);
  obs_closed_.add();
  pending_destroy_.push_back(c);
}

void NetServer::destroy_pending() {
  if (pending_destroy_.empty()) return;
  for (SessionEntry& e : sessions_) {
    if (!e.parked.empty()) {
      std::erase_if(e.parked, [](Connection* c) { return c->closed; });
    }
  }
  for (Connection* c : pending_destroy_) {
    ::close(c->fd);
    auto owned = std::move(conns_[static_cast<std::size_t>(c->fd)]);
    c->fd = -1;
    c->entry = -1;
    c->closed = false;
    c->draining = false;
    c->want_write = false;
    c->mode = kModeUnknown;
    c->in_used = 0;
    c->out.clear();
    c->out_off = 0;
    pool_.push_back(std::move(owned));
  }
  pending_destroy_.clear();
}

}  // namespace protuner::net
