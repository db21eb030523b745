// End-to-end tests of the epoll serving tier (net/net_server.h) over real
// loopback sockets: session completion through net::HarmonyClient,
// rank multiplexing, malformed-frame containment (Error frame + close,
// server survives), dead-client-mid-round straggler handling under the
// PR-3 deadline machinery, and wire-telemetry visibility through obs::.
//
// Each test runs the NetServer loop on a dedicated thread and drives it
// from the test thread through real connections — the same topology as a
// production deployment, minus network distance.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/fixed.h"
#include "harmony/session_manager.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/net_server.h"
#include "net/stats_codec.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace protuner {
namespace {

using core::Point;

struct LoopFixture {
  obs::Registry registry;
  harmony::SessionManager manager;
  std::unique_ptr<net::NetServer> server;
  std::thread loop;

  explicit LoopFixture(net::NetServerOptions options = {}) {
    options.metrics = &registry;
    server = std::make_unique<net::NetServer>(manager, options);
    loop = std::thread([this] { server->run(); });
  }

  ~LoopFixture() {
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

  net::ClientOptions client_options() const {
    net::ClientOptions co;
    co.port = server->port();
    return co;
  }
};

TEST(NetLoop, SingleConnectionDrivesAWholeSessionToCompletion) {
  LoopFixture fx;
  auto hosted = fx.host("solo", 4);
  net::HarmonyClient client(fx.client_options());
  EXPECT_EQ(client.attach("solo", 0), 4u);
  Point cfg;
  constexpr std::size_t kRounds = 25;
  for (std::size_t k = 0; k < kRounds; ++k) {
    // One connection multiplexes all four ranks, phase-locked.
    for (std::uint32_t r = 0; r < 4; ++r) {
      client.fetch_into(r, cfg);
      EXPECT_EQ(cfg, (Point{1.0, 2.0}));
    }
    for (std::uint32_t r = 0; r < 4; ++r) {
      client.report(r, 1.0 + r);
    }
  }
  client.detach(0);
  EXPECT_EQ(hosted->rounds_completed(), kRounds);
  EXPECT_DOUBLE_EQ(hosted->total_time(), kRounds * 4.0);  // max over ranks
}

TEST(NetLoop, ManyConnectionsShareOneSession) {
  LoopFixture fx;
  auto hosted = fx.host("shared", 8);
  constexpr std::size_t kRounds = 10;
  std::vector<std::thread> drivers;
  for (std::uint32_t r = 0; r < 8; ++r) {
    drivers.emplace_back([&fx, r] {
      net::HarmonyClient client(fx.client_options());
      client.attach("shared", r);
      Point cfg;
      for (std::size_t k = 0; k < kRounds; ++k) {
        client.fetch_into(r, cfg);
        client.report(r, 1.0);
      }
      client.detach(r);
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_EQ(hosted->rounds_completed(), kRounds);
  EXPECT_EQ(fx.server->connections_accepted(), 8u);
}

TEST(NetLoop, MalformedFrameGetsErrorFrameAndCloseServerSurvives) {
  LoopFixture fx;
  auto hosted = fx.host("resilient", 1);

  // Raw socket: send garbage that fails frame validation (bad version).
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fx.server->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::vector<std::uint8_t> garbage;
  net::append_simple(garbage, net::MsgType::kAttach, 0, "resilient");
  garbage[4] = 0x7F;  // wrong wire version
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));

  // The server answers with one Error frame, then closes.
  std::vector<std::uint8_t> reply(4096);
  std::size_t got = 0;
  for (;;) {
    const ssize_t n = ::recv(fd, reply.data() + got, reply.size() - got, 0);
    if (n <= 0) break;  // clean EOF after the error frame
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  const net::Decoded d = net::decode_frame({reply.data(), got});
  ASSERT_EQ(d.status, net::DecodeStatus::kFrame);
  EXPECT_EQ(d.frame.type, net::MsgType::kError);
  EXPECT_EQ(fx.server->decode_errors(), 1u);

  // The loop is unharmed: a well-behaved client completes rounds.
  net::HarmonyClient client(fx.client_options());
  client.attach("resilient", 0);
  Point cfg;
  for (int k = 0; k < 5; ++k) {
    client.fetch_into(0, cfg);
    client.report(0, 1.0);
  }
  client.detach(0);
  EXPECT_EQ(hosted->rounds_completed(), 5u);
}

TEST(NetLoop, ProtocolMisuseMapsToProtocolErrorOnTheClient) {
  LoopFixture fx;
  fx.host("strict", 2);
  {
    // Fetch before attach.
    net::HarmonyClient client(fx.client_options());
    Point cfg;
    EXPECT_THROW(client.fetch_into(0, cfg), harmony::ProtocolError);
  }
  {
    // A NaN time: a well-formed frame carrying a value the server rejects.
    net::HarmonyClient client(fx.client_options());
    client.attach("strict", 1);
    Point cfg;
    client.fetch_into(1, cfg);
    EXPECT_THROW(client.report(1, std::numeric_limits<double>::quiet_NaN()),
                 harmony::ProtocolError);
  }
  {
    // Unknown session.
    net::HarmonyClient client(fx.client_options());
    EXPECT_THROW(client.attach("no-such-session", 0),
                 harmony::ProtocolError);
  }
  {
    // Out-of-range rank.
    net::HarmonyClient client(fx.client_options());
    client.attach("strict", 0);
    Point cfg;
    EXPECT_THROW(client.fetch_into(99, cfg), harmony::ProtocolError);
  }
  {
    // Double fetch without report.
    net::HarmonyClient client(fx.client_options());
    client.attach("strict", 0);
    Point cfg;
    client.fetch_into(0, cfg);
    EXPECT_THROW(client.fetch_into(0, cfg), harmony::ProtocolError);
  }
  // Every misuse cost one connection and none was a decode error.
  EXPECT_EQ(fx.server->decode_errors(), 0u);
}

TEST(NetLoop, DeadClientMidRoundBecomesAStraggler) {
  LoopFixture fx;
  harmony::ServerOptions so;
  so.report_timeout = std::chrono::duration<double>(0.05);
  so.straggler_policy = harmony::StragglerPolicy::kShrink;
  auto hosted = fx.host("deadline", 2, so);

  // Rank 1 fetches its assignment and dies without reporting.
  {
    net::HarmonyClient doomed(fx.client_options());
    doomed.attach("deadline", 1);
    Point cfg;
    doomed.fetch_into(1, cfg);
    doomed.close();  // no detach, no report: a crashed client
  }

  // Rank 0 keeps serving; the loop's tick sweep must expire the deadline,
  // impute the straggler and keep rounds flowing.
  net::HarmonyClient client(fx.client_options());
  client.attach("deadline", 0);
  Point cfg;
  for (int k = 0; k < 3; ++k) {
    client.fetch_into(0, cfg);
    client.report(0, 1.0);
  }
  client.detach(0);
  EXPECT_GE(hosted->rounds_completed(), 3u);
  EXPECT_EQ(hosted->active_ranks(), 1u);  // rank 1 dropped as straggler
}

TEST(NetLoop, WireTelemetryIsVisibleThroughObs) {
  LoopFixture fx;
  fx.host("observed", 1);
  net::HarmonyClient client(fx.client_options());
  client.attach("observed", 0);
  Point cfg;
  for (int k = 0; k < 10; ++k) {
    client.fetch_into(0, cfg);
    client.report(0, 2.0);
  }
  client.detach(0);

  const obs::RegistrySnapshot snap = fx.registry.snapshot();
  bool saw_fetch_hist = false;
  bool saw_report_hist = false;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t accepted = 0;
  for (const obs::InstrumentSnapshot& inst : snap.instruments) {
    if (inst.name == "protuner_net_fetch_wire_ns") {
      saw_fetch_hist = true;
      EXPECT_EQ(inst.hist.count, 10u);
      ASSERT_EQ(inst.labels.size(), 1u);
      EXPECT_EQ(inst.labels[0].first, "session");
      EXPECT_EQ(inst.labels[0].second, "observed");
    }
    if (inst.name == "protuner_net_report_wire_ns") {
      saw_report_hist = true;
      EXPECT_EQ(inst.hist.count, 10u);
    }
    if (inst.name == "protuner_net_bytes_in_total") {
      bytes_in = static_cast<std::uint64_t>(inst.value);
    }
    if (inst.name == "protuner_net_bytes_out_total") {
      bytes_out = static_cast<std::uint64_t>(inst.value);
    }
    if (inst.name == "protuner_net_connections_accepted_total") {
      accepted = static_cast<std::uint64_t>(inst.value);
    }
  }
  EXPECT_TRUE(saw_fetch_hist);
  EXPECT_TRUE(saw_report_hist);
  EXPECT_GT(bytes_in, 0u);
  EXPECT_GT(bytes_out, 0u);
  EXPECT_EQ(accepted, 1u);

  // The Prometheus exposition carries the net tier.
  std::ostringstream prom;
  obs::render_prometheus(prom, snap);
  const std::string page = prom.str();
  EXPECT_NE(page.find("protuner_net_bytes_in_total"), std::string::npos);
  EXPECT_NE(page.find("protuner_net_fetch_wire_ns"), std::string::npos);
  EXPECT_NE(page.find("session=\"observed\""), std::string::npos);
}

TEST(NetLoop, RecreatedSessionIsServedByTheNewServer) {
  LoopFixture fx;
  std::shared_ptr<harmony::Server> first = fx.host("reborn", 1);
  Point cfg;
  {
    net::HarmonyClient client(fx.client_options());
    client.attach("reborn", 0);
    client.fetch_into(0, cfg);
    EXPECT_EQ(cfg, (Point{1.0, 2.0}));
    client.report(0, 1.0);
    client.detach(0);
  }
  // The loop releases its attachment when it closes the connection.
  while (fx.manager.stats("reborn").attached != 0) std::this_thread::yield();
  ASSERT_TRUE(fx.manager.remove("reborn"));
  harmony::ServerOptions so;
  so.metrics = &fx.registry;
  so.session = "reborn";
  std::shared_ptr<harmony::Server> second = fx.manager.create(
      "reborn", std::make_unique<core::FixedStrategy>(Point{5.0, 6.0}), 1,
      so);

  net::HarmonyClient client(fx.client_options());
  client.attach("reborn", 0);
  client.fetch_into(0, cfg);
  EXPECT_EQ(cfg, (Point{5.0, 6.0})) << "served by the removed server";
  client.report(0, 1.0);
  client.detach(0);
  EXPECT_EQ(second->rounds_completed(), 1u);
  EXPECT_EQ(first->rounds_completed(), 1u);
  EXPECT_EQ(first.use_count(), 1) << "the loop still pins the removed server";
}

TEST(NetLoop, RemovedSessionIsReleasedByTheLoop) {
  LoopFixture fx;
  std::weak_ptr<harmony::Server> gone;
  {
    std::shared_ptr<harmony::Server> hosted = fx.host("transient", 1);
    gone = hosted;
    net::HarmonyClient client(fx.client_options());
    client.attach("transient", 0);
    Point cfg;
    client.fetch_into(0, cfg);
    client.report(0, 1.0);
    client.detach(0);
  }
  while (fx.manager.stats("transient").attached != 0) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(fx.manager.remove("transient"));
  // Only the loop can still hold the server now; it must let go on its own
  // (at a due tick) without the name ever being attached again.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!gone.expired() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(gone.expired()) << "the loop still pins the removed server";
}

const obs::InstrumentSnapshot* find_with_client_label(
    const obs::RegistrySnapshot& snap, std::string_view name,
    std::string_view client) {
  for (const obs::InstrumentSnapshot& inst : snap.instruments) {
    if (inst.name != name) continue;
    for (const auto& [k, v] : inst.labels) {
      if (k == "client" && v == client) return &inst;
    }
  }
  return nullptr;
}

TEST(NetLoop, ClientStatsPushMergesUnderTheClientLabel) {
  LoopFixture fx;
  fx.host("telemetry", 1);
  obs::Registry client_registry;
  obs::Counter& widgets =
      client_registry.counter("loadgen_widgets_total", "app-side counter");
  obs::Histogram& think =
      client_registry.histogram("loadgen_think_ns", "app-side latency");
  net::ClientOptions co = fx.client_options();
  co.metrics = &client_registry;
  net::HarmonyClient client(co);
  client.attach("telemetry", 0);  // rank 0 names the series

  widgets.add(7);
  think.record(1000.0);
  Point cfg;
  for (int k = 0; k < 2; ++k) {
    client.fetch_into(0, cfg);
    client.report(0, 1.0);
  }
  // A mid-run push is synchronous with its ack.
  client.push_stats(0);
  const obs::RegistrySnapshot mid = fx.registry.snapshot();
  const obs::InstrumentSnapshot* merged =
      find_with_client_label(mid, "loadgen_widgets_total", "0");
  ASSERT_NE(merged, nullptr) << "mid-run push did not reach the server";
  EXPECT_EQ(merged->value, 7.0);
  const obs::InstrumentSnapshot* hist =
      find_with_client_label(mid, "loadgen_think_ns", "0");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist.count, 1u);
  // The client's own wire histograms ride along, client-labelled.
  EXPECT_NE(find_with_client_label(mid, "protuner_net_client_fetch_ns", "0"),
            nullptr);

  // More activity, then detach: the final delta accumulates on top.
  widgets.add(3);
  think.record(5000.0);
  client.detach(0);
  const obs::RegistrySnapshot after = fx.registry.snapshot();
  merged = find_with_client_label(after, "loadgen_widgets_total", "0");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->value, 10.0) << "deltas must accumulate across pushes";
  hist = find_with_client_label(after, "loadgen_think_ns", "0");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist.count, 2u);
  EXPECT_DOUBLE_EQ(hist->hist.max, 5000.0);
}

// Raw-socket driver for hostile-client tests: sends `wire` verbatim, reads
// to EOF, and returns the type of the last reply frame (the server closes
// after an Error, so that is what a contained failure ends with).
net::MsgType drive_raw(std::uint16_t port,
                       const std::vector<std::uint8_t>& wire) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;  // server already closed on us: the replies tell all
    sent += static_cast<std::size_t>(n);
  }
  std::vector<std::uint8_t> reply(1 << 16);
  std::size_t got = 0;
  for (;;) {
    const ssize_t n = ::recv(fd, reply.data() + got, reply.size() - got, 0);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  net::MsgType last = net::MsgType::kAttach;
  bool any = false;
  std::size_t off = 0;
  for (;;) {
    const net::Decoded d = net::decode_frame({reply.data() + off, got - off});
    if (d.status != net::DecodeStatus::kFrame) break;
    last = d.frame.type;
    any = true;
    off += d.consumed;
  }
  EXPECT_TRUE(any) << "no decodable reply frame";
  return last;
}

std::vector<std::uint8_t> stats_frame(const obs::RegistrySnapshot& snap) {
  std::vector<std::uint8_t> body;
  net::encode_stats(body, snap);
  std::vector<std::uint8_t> frame;
  net::append_frame(frame, net::MsgType::kStats, 0, {},
                    {body.data(), body.size()});
  return frame;
}

TEST(NetLoop, KindMismatchStatsPushClosesTheConnectionNotTheServer) {
  // Regression: merge_from throws std::logic_error when a pushed instrument
  // collides with an existing one of a different kind.  Escaping the event
  // loop would std::terminate the whole server; it must cost exactly the
  // one connection, like any other client misbehaviour.
  LoopFixture fx;
  auto hosted = fx.host("armored", 1);

  std::vector<std::uint8_t> wire;
  net::append_simple(wire, net::MsgType::kAttach, 0, "armored");
  obs::Registry first;
  first.counter("flip_total").add(1);
  const std::vector<std::uint8_t> push1 = stats_frame(first.snapshot());
  wire.insert(wire.end(), push1.begin(), push1.end());
  obs::Registry second;
  second.gauge("flip_total").set(1);  // same name+labels, different kind
  const std::vector<std::uint8_t> push2 = stats_frame(second.snapshot());
  wire.insert(wire.end(), push2.begin(), push2.end());

  EXPECT_EQ(drive_raw(fx.server->port(), wire), net::MsgType::kError);
  EXPECT_GE(fx.server->decode_errors(), 1u);

  // The loop is unharmed: a well-behaved client completes rounds.
  net::HarmonyClient client(fx.client_options());
  client.attach("armored", 0);
  Point cfg;
  for (int k = 0; k < 3; ++k) {
    client.fetch_into(0, cfg);
    client.report(0, 1.0);
  }
  client.detach(0);
  EXPECT_EQ(hosted->rounds_completed(), 3u);
}

TEST(NetLoop, StatsSeriesChurnPastTheCapClosesTheConnection) {
  // A client minting unique metric names on every push would grow the
  // server registry (and the /metrics page) without bound; past the
  // session's cap (width 1: kMaxStatsSeries = 256 series) the push is
  // rejected and the connection closed.
  constexpr std::size_t kCap = net::NetServer::kMaxStatsSeries;
  LoopFixture fx;
  auto hosted = fx.host("bounded", 1);
  const std::size_t before = fx.registry.size();

  obs::Registry churner;
  for (int i = 0; i < 300; ++i) {
    churner.counter("churn_" + std::to_string(i) + "_total").add(1);
  }
  std::vector<std::uint8_t> wire;
  net::append_simple(wire, net::MsgType::kAttach, 0, "bounded");
  const std::vector<std::uint8_t> push = stats_frame(churner.snapshot());
  wire.insert(wire.end(), push.begin(), push.end());

  EXPECT_EQ(drive_raw(fx.server->port(), wire), net::MsgType::kError);
  EXPECT_GE(fx.server->decode_errors(), 1u);
  // At most the cap's worth of churn series landed (+2 for the session's
  // own wire histograms, minted by the attach).
  EXPECT_LE(fx.registry.size(), before + 2 + kCap);
  const obs::RegistrySnapshot snap = fx.registry.snapshot();
  EXPECT_NE(find_with_client_label(snap, "churn_0_total", "0"), nullptr)
      << "series under the cap still merge";
  EXPECT_EQ(find_with_client_label(snap, "churn_299_total", "0"), nullptr);

  // The loop is unharmed: a well-behaved client completes rounds.
  net::HarmonyClient client(fx.client_options());
  client.attach("bounded", 0);
  Point cfg;
  for (int k = 0; k < 3; ++k) {
    client.fetch_into(0, cfg);
    client.report(0, 1.0);
  }
  client.detach(0);
  EXPECT_EQ(hosted->rounds_completed(), 3u);
}

TEST(NetLoop, StatsSeriesBudgetIsPerSessionAcrossReconnects) {
  // The series budget belongs to the session, not to one connection: a
  // client that reconnects for every push must not get a fresh budget each
  // time.  Width 1 and a cap of kMaxStatsSeries = 256: of 1 000 raw
  // reconnects that each attach and push one never-seen counter, only the
  // first 256 mint a series.
  constexpr std::size_t kCap = net::NetServer::kMaxStatsSeries;
  LoopFixture fx;
  auto hosted = fx.host("reconnecting", 1);
  const std::size_t before = fx.registry.size();

  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int i = 0; i < 1000; ++i) {
    obs::Registry churner;
    churner.counter("reconnect_" + std::to_string(i) + "_total").add(1);
    std::vector<std::uint8_t> wire;
    net::append_simple(wire, net::MsgType::kAttach, 0, "reconnecting");
    const std::vector<std::uint8_t> push = stats_frame(churner.snapshot());
    wire.insert(wire.end(), push.begin(), push.end());
    net::append_simple(wire, net::MsgType::kDetach, 0, {});
    // An accepted push ends with the detach ack, a rejected one with the
    // Error frame the server closes on.
    const net::MsgType last = drive_raw(fx.server->port(), wire);
    ASSERT_TRUE(last == net::MsgType::kDetach || last == net::MsgType::kError)
        << "reconnect " << i;
    (last == net::MsgType::kError ? rejected : accepted) += 1;
  }
  EXPECT_EQ(accepted, kCap);
  EXPECT_EQ(rejected, 1000u - kCap);
  // The cap's worth of series (+2 for the session's own wire histograms,
  // minted by the first attach).
  EXPECT_LE(fx.registry.size(), before + 2 + kCap);
  const obs::RegistrySnapshot snap = fx.registry.snapshot();
  EXPECT_NE(find_with_client_label(snap, "reconnect_0_total", "0"), nullptr);
  EXPECT_NE(find_with_client_label(snap, "reconnect_255_total", "0"), nullptr);
  EXPECT_EQ(find_with_client_label(snap, "reconnect_256_total", "0"), nullptr);

  // The loop is unharmed: a well-behaved client completes rounds.
  net::HarmonyClient client(fx.client_options());
  client.attach("reconnecting", 0);
  Point cfg;
  for (int k = 0; k < 3; ++k) {
    client.fetch_into(0, cfg);
    client.report(0, 1.0);
  }
  client.detach(0);
  EXPECT_EQ(hosted->rounds_completed(), 3u);
}

TEST(NetLoop, WatchdogStallDumpCapturesTheParkedFetchAndTheImpute) {
  // The acceptance scenario for the flight recorder: a client dies holding
  // a round open, the survivor's next fetch parks, the deadline imputes
  // the dead rank, and when the fleet finally goes quiet the stall
  // watchdog dumps a ring that still holds both edges.
  obs::FlightRecorder flight(512);
  net::NetServerOptions no;
  no.flight = &flight;
  LoopFixture fx(no);
  // The 0.05 s report deadline gives a stall window of 0.05 × kStallFactor
  // = 0.2 s.
  harmony::ServerOptions so;
  so.report_timeout = std::chrono::duration<double>(0.05);
  so.straggler_policy = harmony::StragglerPolicy::kShrink;
  so.flight = &flight;
  auto hosted = fx.host("blackbox", 2, so);

  // Rank 1 fetches its assignment and dies mid-round.
  {
    net::HarmonyClient doomed(fx.client_options());
    doomed.attach("blackbox", 1);
    Point cfg;
    doomed.fetch_into(1, cfg);
    doomed.close();
  }

  net::HarmonyClient client(fx.client_options());
  client.attach("blackbox", 0);
  Point cfg;
  client.fetch_into(0, cfg);
  client.report(0, 1.0);
  // Round 0 still waits on the dead rank 1: this fetch parks until the
  // deadline expires and imputes the straggler.
  client.fetch_into(0, cfg);
  // Now go silent while staying attached.  Rounds stop advancing; after
  // the stall window the watchdog declares the session stalled and dumps.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fx.server->stall_dumps() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(fx.server->stall_dumps(), 1u) << "watchdog never fired";

  // The ring holds the whole post-mortem: the parked fetch, the deadline
  // expiry, the imputation of the dead rank, and the stall declaration.
  bool saw_park = false;
  bool saw_impute_dead_rank = false;
  bool saw_deadline = false;
  bool saw_stall = false;
  bool saw_fail = false;
  for (const obs::FlightEvent& e : flight.snapshot()) {
    const std::string_view kind = e.kind != nullptr ? e.kind : "";
    saw_park |= kind == "fetch/park" && e.rank == 0;
    saw_impute_dead_rank |= kind == "rank/impute" && e.rank == 1;
    saw_deadline |= kind == "deadline/expire";
    saw_stall |= kind == "stall/dump";
    saw_fail |= kind == "session/fail";
  }
  EXPECT_TRUE(saw_park) << "parked fetch missing from the flight ring";
  EXPECT_TRUE(saw_impute_dead_rank)
      << "imputation of the dead rank missing from the flight ring";
  EXPECT_TRUE(saw_deadline);
  EXPECT_TRUE(saw_stall);
  EXPECT_TRUE(saw_fail) << "the fleet-wide silence must fail the session";
  EXPECT_GE(hosted->rounds_completed(), 1u);
  client.close();
}

TEST(NetLoop, SessionManagerSnapshotSeesNetAndSessionTelemetryTogether) {
  LoopFixture fx;
  fx.host("combined", 1);
  net::HarmonyClient client(fx.client_options());
  client.attach("combined", 0);
  Point cfg;
  client.fetch_into(0, cfg);
  client.report(0, 1.0);
  client.detach(0);
  // Both the harmony server instruments and the wire instruments live in
  // the one registry the fixture wired everywhere.
  const obs::RegistrySnapshot snap = fx.registry.snapshot();
  bool harmony_fetch = false;
  bool wire_fetch = false;
  for (const obs::InstrumentSnapshot& inst : snap.instruments) {
    harmony_fetch |= inst.name == "protuner_harmony_fetch_ns";
    wire_fetch |= inst.name == "protuner_net_fetch_wire_ns";
  }
  EXPECT_TRUE(harmony_fetch);
  EXPECT_TRUE(wire_fetch);
}

}  // namespace
}  // namespace protuner
