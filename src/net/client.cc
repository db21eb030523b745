#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>

#include "harmony/server.h"  // harmony::ProtocolError
#include "net/stats_codec.h"
#include "obs/fast_clock.h"
#include "obs/trace.h"

namespace protuner::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw NetError(std::string(what) + ": " + std::strerror(errno));
}

void set_timeout(int fd, int opt, std::chrono::milliseconds ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms.count() % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, opt, &tv, sizeof(tv));
}

}  // namespace

HarmonyClient::HarmonyClient(ClientOptions options)
    : options_(std::move(options)) {
  in_.resize(4096);
  connect_with_retry();
}

HarmonyClient::~HarmonyClient() { close(); }

void HarmonyClient::connect_with_retry() {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    throw NetError("bad host address: " + options_.host);
  }
  const auto give_up =
      std::chrono::steady_clock::now() + kConnectTimeout;
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw_errno("socket");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      set_timeout(fd, SO_RCVTIMEO, kIoTimeout);
      set_timeout(fd, SO_SNDTIMEO, kIoTimeout);
      fd_ = fd;
      return;
    }
    const int err = errno;
    ::close(fd);
    if (std::chrono::steady_clock::now() >= give_up) {
      errno = err;
      throw_errno("connect");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void HarmonyClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void HarmonyClient::send_buffer() {
  if (fd_ < 0) throw NetError("client is not connected");
  std::size_t off = 0;
  while (off < out_.size()) {
    const ssize_t n =
        ::send(fd_, out_.data() + off, out_.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      close();
      throw NetError("send timed out");
    }
    const int err = errno;
    close();
    errno = err;
    throw_errno("send");
  }
}

const Frame& HarmonyClient::recv_frame() {
  if (fd_ < 0) throw NetError("client is not connected");
  if (consumed_ > 0) {
    std::memmove(in_.data(), in_.data() + consumed_, in_used_ - consumed_);
    in_used_ -= consumed_;
    consumed_ = 0;
  }
  for (;;) {
    const Decoded d = decode_frame({in_.data(), in_used_});
    if (d.status == DecodeStatus::kFrame) {
      consumed_ = d.consumed;
      frame_ = d.frame;
      return frame_;
    }
    if (d.status == DecodeStatus::kBadFrame) {
      close();
      throw NetError("server sent a malformed frame: " +
                     std::string(d.error));
    }
    if (in_used_ == in_.size()) {
      const std::size_t cap = 4 + kMaxFrameBytes;
      if (in_.size() >= cap) {
        close();
        throw NetError("server frame exceeds the size cap");
      }
      in_.resize(std::min(cap, in_.size() * 2));
    }
    const ssize_t n =
        ::recv(fd_, in_.data() + in_used_, in_.size() - in_used_, 0);
    if (n == 0) {
      close();
      throw NetError("server closed the connection");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        close();
        throw NetError("receive timed out");
      }
      const int err = errno;
      close();
      errno = err;
      throw_errno("recv");
    }
    in_used_ += static_cast<std::size_t>(n);
  }
}

const Frame& HarmonyClient::expect_reply(MsgType type) {
  const Frame& f = recv_frame();
  if (f.type == MsgType::kError) {
    std::string message(reinterpret_cast<const char*>(f.body.data()),
                        f.body.size());
    close();  // the server closes its side after an Error frame
    throw harmony::ProtocolError(message);
  }
  if (f.type != type) {
    close();
    throw NetError("unexpected reply type from server");
  }
  return f;
}

std::uint32_t HarmonyClient::attach(const std::string& session,
                                    std::uint32_t rank) {
  session_ = session;
  out_.clear();
  append_simple(out_, MsgType::kAttach, rank, session);
  send_buffer();
  const Frame& f = expect_reply(MsgType::kAttach);
  std::uint32_t clients = 0;
  if (!parse_u32_body(f.body, clients)) {
    close();
    throw NetError("malformed attach ack");
  }
  if (options_.metrics != nullptr) {
    const obs::Labels labels{{"session", session_}};
    fetch_ns_ = &options_.metrics->histogram(
        "protuner_net_client_fetch_ns",
        "Client-observed fetch call latency over the wire (ns)", labels);
    report_ns_ = &options_.metrics->histogram(
        "protuner_net_client_report_ns",
        "Client-observed report call latency over the wire (ns)", labels);
  }
  return clients;
}

void HarmonyClient::fetch_into(std::uint32_t rank, core::Point& out) {
  obs::ScopedSpan span(obs::Tracer::global(), "client/fetch");
  const std::uint64_t entered = obs::LatencyClock::now();
  out_.clear();
  append_simple(out_, MsgType::kFetch, rank, {});
  send_buffer();
  const Frame& f = expect_reply(MsgType::kFetch);
  if (!parse_config_body(f.body, out)) {
    close();
    throw NetError("malformed configuration reply");
  }
  if (f.has_trace) {
    // The reply trailer names the server round that satisfied this fetch;
    // adopting it stitches this span into the cross-process trace.
    last_trace_ = f.trace;
    has_last_trace_ = true;
    if (span.active()) {
      span.set_context({f.trace.trace_id, f.trace.span_id});
    }
  }
  if (fetch_ns_ != nullptr) {
    fetch_ns_->record(
        obs::LatencyClock::to_ns(obs::LatencyClock::now() - entered));
  }
}

void HarmonyClient::report(std::uint32_t rank, double time) {
  obs::ScopedSpan span(obs::Tracer::global(), "client/report");
  const std::uint64_t entered = obs::LatencyClock::now();
  if (has_last_trace_ && span.active()) {
    span.set_context({last_trace_.trace_id, last_trace_.span_id});
  }
  out_.clear();
  append_report(out_, rank, {}, time,
                has_last_trace_ ? &last_trace_ : nullptr);
  send_buffer();
  expect_reply(MsgType::kReport);
  if (report_ns_ != nullptr) {
    report_ns_->record(
        obs::LatencyClock::to_ns(obs::LatencyClock::now() - entered));
  }
}

void HarmonyClient::push_stats(std::uint32_t rank) {
  if (fd_ < 0 || options_.metrics == nullptr) return;
  obs::RegistrySnapshot current = options_.metrics->snapshot();
  const obs::RegistrySnapshot delta = stats_delta(current, last_pushed_);
  // An empty delta still advances the baseline: the comparison work is
  // done, and the wire stays quiet during idle periods.
  if (!delta.instruments.empty()) {
    stats_body_.clear();
    encode_stats(stats_body_, delta);
    out_.clear();
    append_frame(out_, MsgType::kStats, rank, {}, stats_body_);
    send_buffer();
    expect_reply(MsgType::kStats);
  }
  last_pushed_ = std::move(current);
}

void HarmonyClient::detach(std::uint32_t rank) {
  if (fd_ < 0) return;
  try {
    push_stats(rank);
  } catch (const NetError&) {
    // Telemetry must never turn a clean goodbye into a failure.
  }
  if (fd_ < 0) return;  // the push may have torn the connection down
  out_.clear();
  append_simple(out_, MsgType::kDetach, rank, {});
  send_buffer();
  try {
    expect_reply(MsgType::kDetach);
  } catch (const NetError&) {
    // The server may close right after (or while) acking; a torn-down
    // socket during goodbye is not an error worth surfacing.
  }
  close();
}

}  // namespace protuner::net
