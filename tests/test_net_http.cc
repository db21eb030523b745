// The in-loop HTTP exporter (net/net_server.h, DESIGN.md §15): the same
// epoll loop that serves binary frames answers plain HTTP/1.0 GETs on the
// same port — a connection whose first four bytes are "GET " is demuxed to
// the exporter, everything else to the frame decoder.
//
// These tests talk to the server the way a scraper would: a raw TCP
// socket, a hand-written request, read-to-EOF (the server closes after one
// response, HTTP/1.0 style).  They validate status lines, the Prometheus
// exposition grammar of /metrics (every non-comment line is
// `name{labels} value`, one HELP/TYPE per family), /healthz flipping to
// 503 while a session is stalled, /sessions JSON, and that scrapes coexist
// with live frame traffic on neighbouring connections.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/fixed.h"
#include "harmony/session_manager.h"
#include "net/client.h"
#include "net/net_server.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace protuner {
namespace {

using core::Point;

struct HttpFixture {
  obs::Registry registry;
  obs::FlightRecorder flight{256};
  harmony::SessionManager manager;
  std::unique_ptr<net::NetServer> server;
  std::thread loop;

  explicit HttpFixture(net::NetServerOptions options = {}) {
    options.metrics = &registry;
    options.flight = &flight;
    server = std::make_unique<net::NetServer>(manager, options);
    loop = std::thread([this] { server->run(); });
  }

  ~HttpFixture() {
    server->stop();
    loop.join();
  }

  std::shared_ptr<harmony::Server> host(const std::string& name,
                                        std::size_t clients,
                                        harmony::ServerOptions so = {}) {
    so.metrics = &registry;
    so.session = name;
    return manager.create(
        name, std::make_unique<core::FixedStrategy>(Point{1.0, 2.0}),
        clients, so);
  }
};

/// One HTTP/1.0 GET over a fresh socket; returns the full response bytes
/// (headers + body) after the server's close.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string body_of(const std::string& response) {
  const std::size_t sep = response.find("\r\n\r\n");
  return sep == std::string::npos ? std::string() : response.substr(sep + 4);
}

/// True iff `line` matches the Prometheus sample grammar this repo emits:
/// metric_name ['{' key="value" [, ...] '}'] ' ' number.
bool is_prometheus_sample(const std::string& line) {
  std::size_t i = 0;
  auto name_char = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':';
  };
  while (i < line.size() && name_char(line[i])) ++i;
  if (i == 0) return false;
  if (i < line.size() && line[i] == '{') {
    // Scan the label block respecting escaped quotes inside values.
    ++i;
    bool in_string = false;
    for (; i < line.size(); ++i) {
      if (in_string) {
        if (line[i] == '\\') {
          ++i;  // skip the escaped char
        } else if (line[i] == '"') {
          in_string = false;
        }
      } else if (line[i] == '"') {
        in_string = true;
      } else if (line[i] == '}') {
        break;
      }
    }
    if (i >= line.size() || line[i] != '}') return false;
    ++i;
  }
  if (i >= line.size() || line[i] != ' ') return false;
  ++i;
  if (i >= line.size()) return false;
  // The value: a finite decimal / scientific number, or +Inf/-Inf/NaN.
  const std::string value = line.substr(i);
  if (value == "+Inf" || value == "-Inf" || value == "NaN") return true;
  char* end = nullptr;
  std::strtod(value.c_str(), &end);
  return end != nullptr && *end == '\0';
}

TEST(NetHttp, MetricsEndpointServesWellFormedPrometheus) {
  HttpFixture fx;
  fx.host("scraped", 2);
  // Real traffic first, so the exposition has wire + session families.
  net::HarmonyClient client({.port = fx.server->port()});
  client.attach("scraped", 0);  // one connection multiplexes both ranks
  Point cfg;
  for (int k = 0; k < 5; ++k) {
    for (std::uint32_t r = 0; r < 2; ++r) client.fetch_into(r, cfg);
    for (std::uint32_t r = 0; r < 2; ++r) client.report(r, 1.0 + r);
  }
  client.detach(0);

  const std::string response = http_get(fx.server->port(), "/metrics");
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);

  const std::string page = body_of(response);
  EXPECT_NE(page.find("protuner_net_bytes_in_total"), std::string::npos);
  EXPECT_NE(page.find("protuner_net_fetch_wire_ns"), std::string::npos);
  EXPECT_NE(page.find("session=\"scraped\""), std::string::npos);

  // Every line is either a comment or a grammatical sample, and each
  // family introduces itself exactly once.
  std::istringstream lines(page);
  std::string line;
  int type_fetch_wire = 0;
  int samples = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.rfind("# ", 0) == 0) {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
      if (line.rfind("# TYPE protuner_net_fetch_wire_ns ", 0) == 0) {
        ++type_fetch_wire;
      }
      continue;
    }
    ++samples;
    EXPECT_TRUE(is_prometheus_sample(line)) << "bad sample line: " << line;
  }
  EXPECT_EQ(type_fetch_wire, 1);
  EXPECT_GT(samples, 10);
}

TEST(NetHttp, HealthzSessionsAndUnknownPaths) {
  HttpFixture fx;
  fx.host("alpha", 4);
  fx.host("beta", 2);

  const std::string health = http_get(fx.server->port(), "/healthz");
  EXPECT_EQ(health.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << health;
  EXPECT_EQ(body_of(health), "ok\n");

  const std::string sessions = http_get(fx.server->port(), "/sessions");
  EXPECT_EQ(sessions.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_NE(sessions.find("Content-Type: application/json"),
            std::string::npos);
  const std::string json = body_of(sessions);
  EXPECT_NE(json.find("\"name\":\"alpha\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"beta\""), std::string::npos);
  EXPECT_NE(json.find("\"clients\":4"), std::string::npos);
  EXPECT_EQ(json.front(), '[');

  // Query strings are ignored; unknown paths 404; the loop survives both.
  EXPECT_EQ(http_get(fx.server->port(), "/healthz?probe=1")
                .rfind("HTTP/1.0 200 OK\r\n", 0),
            0u);
  EXPECT_EQ(http_get(fx.server->port(), "/nope")
                .rfind("HTTP/1.0 404 Not Found\r\n", 0),
            0u);
  EXPECT_EQ(fx.server->decode_errors(), 0u)
      << "HTTP connections must not count as frame decode errors";
}

TEST(NetHttp, HealthzTurns503WhileASessionIsStalled) {
  HttpFixture fx;
  // The 0.0125 s report deadline gives a stall window of 0.0125 ×
  // kStallFactor = 0.05 s.
  harmony::ServerOptions so;
  so.report_timeout = std::chrono::duration<double>(0.0125);
  fx.host("wedged", 2, so);

  // An attached client fetches and then sits on the round forever.
  net::HarmonyClient client({.port = fx.server->port()});
  client.attach("wedged", 0);
  Point cfg;
  client.fetch_into(0, cfg);

  // The watchdog needs the stall window to elapse before it declares.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  std::string health;
  do {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    health = http_get(fx.server->port(), "/healthz");
  } while (health.find("503") == std::string::npos &&
           std::chrono::steady_clock::now() < deadline);
  EXPECT_EQ(health.rfind("HTTP/1.0 503 Service Unavailable\r\n", 0), 0u)
      << health;
  EXPECT_EQ(body_of(health), "stalled\n");
  EXPECT_GE(fx.server->stall_dumps(), 1u);
  // The declared stall is visible in the exported counter too.
  const std::string page = body_of(http_get(fx.server->port(), "/metrics"));
  EXPECT_NE(page.find("protuner_stall_dumps_total"), std::string::npos);
  client.close();
}

TEST(NetHttp, ScrapesCoexistWithFrameTraffic) {
  HttpFixture fx;
  auto hosted = fx.host("mixed", 1);
  std::thread scraper([&fx] {
    for (int i = 0; i < 20; ++i) {
      const std::string r = http_get(fx.server->port(), "/metrics");
      EXPECT_NE(r.find("200 OK"), std::string::npos);
    }
  });
  net::HarmonyClient client({.port = fx.server->port()});
  client.attach("mixed", 0);
  Point cfg;
  constexpr std::size_t kRounds = 50;
  for (std::size_t k = 0; k < kRounds; ++k) {
    client.fetch_into(0, cfg);
    client.report(0, 1.0);
  }
  client.detach(0);
  scraper.join();
  EXPECT_EQ(hosted->rounds_completed(), kRounds);
  EXPECT_EQ(fx.server->decode_errors(), 0u);
}

TEST(NetHttp, MalformedRequestLineGets400) {
  HttpFixture fx;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fx.server->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = "GET \r\n\r\n";  // no path token
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(response.rfind("HTTP/1.0 400 Bad Request\r\n", 0), 0u)
      << response;
}

}  // namespace
}  // namespace protuner
