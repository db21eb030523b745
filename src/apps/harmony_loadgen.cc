#include "apps/harmony_loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <latch>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "core/fixed.h"
#include "harmony/session_manager.h"
#include "net/client.h"
#include "net/net_server.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "varmodel/noise_model.h"
#include "varmodel/pareto_noise.h"

namespace protuner::apps {

namespace {

varmodel::NoiseModelPtr make_think_model(const LoadgenOptions& options) {
  if (options.heavy_tail) {
    return std::make_unique<varmodel::ParetoNoise>(options.rho,
                                                   options.alpha);
  }
  return std::make_unique<varmodel::NoNoise>();
}

// One blocking HTTP/1.0 GET /metrics against the in-process loop, the way
// a Prometheus scraper would: fresh connection, read to EOF (the server
// closes after one response).  Returns true on a complete 200.
bool scrape_metrics(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  static constexpr char kRequest[] =
      "GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n";
  bool ok = false;
  if (::send(fd, kRequest, sizeof(kRequest) - 1, 0) ==
      static_cast<ssize_t>(sizeof(kRequest) - 1)) {
    char buf[4096];
    bool first = true;
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      if (first && n >= 12) ok = std::memcmp(buf + 9, "200", 3) == 0;
      first = false;
    }
  }
  ::close(fd);
  return ok;
}

void spin_for(std::chrono::duration<double> d) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<
                         std::chrono::steady_clock::duration>(d);
  while (std::chrono::steady_clock::now() < until) {
  }
}

// Sums one named histogram across every {"session", ...} label in the
// snapshot (bucket-wise; max of maxes).
obs::HistogramSnapshot aggregate_histogram(
    const obs::RegistrySnapshot& snapshot, std::string_view name) {
  obs::HistogramSnapshot out;
  for (const obs::InstrumentSnapshot& inst : snapshot.instruments) {
    if (inst.name != name || inst.kind != obs::InstrumentKind::kHistogram) {
      continue;
    }
    if (out.counts.empty()) {
      out.counts.assign(inst.hist.counts.size(), 0);
    }
    for (std::size_t b = 0;
         b < out.counts.size() && b < inst.hist.counts.size(); ++b) {
      out.counts[b] += inst.hist.counts[b];
    }
    out.count += inst.hist.count;
    out.max = std::max(out.max, inst.hist.max);
  }
  return out;
}

// Sums one named counter across every session label.
std::uint64_t aggregate_counter(const obs::RegistrySnapshot& snapshot,
                                std::string_view name) {
  std::uint64_t total = 0;
  for (const obs::InstrumentSnapshot& inst : snapshot.instruments) {
    if (inst.name == name && inst.kind == obs::InstrumentKind::kCounter) {
      total += static_cast<std::uint64_t>(inst.value);
    }
  }
  return total;
}

}  // namespace

LoadgenReport run_loadgen(const LoadgenOptions& options) {
  const std::size_t sessions = std::max<std::size_t>(1, options.sessions);
  const std::size_t ranks = std::max<std::size_t>(1, options.ranks);
  const std::size_t workers =
      std::clamp<std::size_t>(options.workers, 1, ranks);
  const std::size_t dims = std::max<std::size_t>(1, options.dims);
  const LoadgenMode mode = options.mode;
  const bool hosts_sessions = mode != LoadgenMode::kRemote;
  const bool spawns_workers = mode != LoadgenMode::kServe;
  const bool uses_sockets = mode != LoadgenMode::kInProcess;

  obs::Registry registry;
  // The clients' own registry, as in production where every client process
  // has one.  It must NOT be the server's: the detach telemetry push ships
  // a snapshot of this registry, and pushing a registry the server merges
  // into would echo every previously merged series back with every push.
  obs::Registry client_registry;
  harmony::SessionManager manager;
  const varmodel::NoiseModelPtr think_model = make_think_model(options);

  std::vector<std::shared_ptr<harmony::Server>> servers;
  if (hosts_sessions) {
    servers.reserve(sessions);
    for (std::size_t s = 0; s < sessions; ++s) {
      harmony::ServerOptions so;
      so.metrics = &registry;
      so.record_series = false;
      so.report_timeout = options.report_timeout;
      servers.push_back(manager.create(
          "soak-" + std::to_string(s),
          std::make_unique<core::FixedStrategy>(core::Point(dims, 1.0)),
          ranks, so));
    }
  }

  // Socket modes put a NetServer in front of the sessions.  kLoopback runs
  // its loop on a dedicated thread of this process; kServe runs it on the
  // calling thread (below) and remote loadgens provide the traffic.
  std::optional<net::NetServer> net;
  std::thread net_thread;
  if (mode == LoadgenMode::kLoopback || mode == LoadgenMode::kServe) {
    net::NetServerOptions no;
    no.port = options.port;
    no.metrics = &registry;
    net.emplace(manager, no);
    if (mode == LoadgenMode::kLoopback) {
      net_thread = std::thread([&net] { net->run(); });
    }
  }
  const std::string host =
      mode == LoadgenMode::kRemote ? options.remote_host : "127.0.0.1";
  const std::uint16_t port =
      mode == LoadgenMode::kRemote ? options.port : (net ? net->port() : 0);

  std::latch start(1);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> fetch_ops{0};
  std::atomic<std::uint64_t> report_ops{0};
  std::atomic<std::uint64_t> monitor_sweeps{0};
  std::atomic<std::uint64_t> ticks{0};
  std::atomic<std::uint64_t> scrapes{0};
  // Per-worker completed-phase counts; each slot is owned by one worker
  // and read only after its join.  A session's completed rounds is the min
  // over its workers (the only view a kRemote driver has).
  std::vector<std::uint64_t> phases(sessions * workers, 0);

  // One phase-locked multiplexing worker per (session, slice): fetch every
  // owned rank, think, report every owned rank.  Each session's ranks are
  // partitioned across its workers, so no worker ever waits on a rank
  // another thread must report first — deadlock-free regardless of how
  // rounds interleave across sessions.  Socket-mode workers run the exact
  // same phases through one net::HarmonyClient connection each.
  std::vector<std::jthread> threads;
  threads.reserve(sessions * workers + 3);
  for (std::size_t s = 0; spawns_workers && s < sessions; ++s) {
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, s, w] {
        const std::size_t lo = w * ranks / workers;
        const std::size_t hi = (w + 1) * ranks / workers;
        util::Rng rng(options.seed +
                      0x9e3779b97f4a7c15ULL * (s * workers + w + 1));
        core::Point scratch;
        std::vector<double> thinks(hi - lo);
        std::uint64_t fetched = 0;
        std::uint64_t reported = 0;
        std::uint64_t& done_phases = phases[s * workers + w];
        start.wait();
        try {
          harmony::Server* server =
              uses_sockets ? nullptr : servers[s].get();
          std::optional<net::HarmonyClient> client;
          if (uses_sockets) {
            net::ClientOptions co;
            co.host = host;
            co.port = port;
            co.metrics = &client_registry;
            client.emplace(co);
            client->attach("soak-" + std::to_string(s),
                           static_cast<std::uint32_t>(lo));
          }
          for (std::size_t round = 0; round < options.rounds; ++round) {
            for (std::size_t r = lo; r < hi; ++r) {
              if (client) {
                client->fetch_into(static_cast<std::uint32_t>(r), scratch);
              } else {
                server->fetch_into(r, scratch);
              }
              ++fetched;
              thinks[r - lo] = think_model->observe(options.think_mean, rng);
            }
            if (options.think_pacing) {
              // The owned ranks think concurrently in the modelled system;
              // the multiplexing worker waits out the slowest of them.
              spin_for(std::chrono::duration<double>(
                  *std::max_element(thinks.begin(), thinks.end())));
            }
            for (std::size_t r = lo; r < hi; ++r) {
              if (client) {
                client->report(static_cast<std::uint32_t>(r),
                               thinks[r - lo]);
              } else {
                server->report(r, thinks[r - lo]);
              }
              ++reported;
            }
            ++done_phases;
          }
          if (client) client->detach(static_cast<std::uint32_t>(lo));
        } catch (const harmony::ProtocolError&) {
          // Session poisoned (kFail deadline) — stop driving it.
        } catch (const net::NetError&) {
          // Server went away — stop driving this connection.
        }
        fetch_ops.fetch_add(fetched, std::memory_order_relaxed);
        report_ops.fetch_add(reported, std::memory_order_relaxed);
      });
    }
  }

  if (hosts_sessions && options.tick_hz > 0.0) {
    threads.emplace_back([&] {
      const auto period = std::chrono::duration_cast<
          std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(1.0 / options.tick_hz));
      start.wait();
      // At least one sweep even when the soak ends before this thread is
      // first scheduled, so `ticks` never depends on scheduler timing.
      do {
        for (const auto& server : servers) {
          try {
            server->tick();
          } catch (const harmony::ProtocolError&) {
          }
          ticks.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(period);
      } while (!stop.load(std::memory_order_relaxed));
    });
  }

  if (hosts_sessions && options.monitor) {
    threads.emplace_back([&] {
      start.wait();
      auto last_line = std::chrono::steady_clock::now();
      std::uint64_t last_ops = 0;
      std::uint64_t last_in = 0;
      std::uint64_t last_out = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // The production exporter loop: a full stats sweep plus a registry
        // snapshot, as fast as it can go.
        (void)manager.stats_all();
        const obs::RegistrySnapshot snap = registry.snapshot();
        monitor_sweeps.fetch_add(1, std::memory_order_relaxed);
        const auto now = std::chrono::steady_clock::now();
        if (now - last_line < std::chrono::seconds(1)) continue;
        // Live operator line (~1 Hz): traffic rate plus the wire-health
        // signals a dashboard would alert on.
        const double dt = std::chrono::duration<double>(now - last_line)
                              .count();
        const std::uint64_t ops =
            fetch_ops.load(std::memory_order_relaxed) +
            report_ops.load(std::memory_order_relaxed);
        const std::uint64_t in =
            aggregate_counter(snap, "protuner_net_bytes_in_total");
        const std::uint64_t out =
            aggregate_counter(snap, "protuner_net_bytes_out_total");
        std::fprintf(
            stderr,
            "monitor: %10.0f ops/s · %8.2f MB/s in · %8.2f MB/s out · "
            "%llu decode errors · %llu stall dumps\n",
            static_cast<double>(ops - last_ops) / dt,
            static_cast<double>(in - last_in) / dt / 1e6,
            static_cast<double>(out - last_out) / dt / 1e6,
            static_cast<unsigned long long>(net ? net->decode_errors() : 0),
            static_cast<unsigned long long>(net ? net->stall_dumps() : 0));
        last_line = now;
        last_ops = ops;
        last_in = in;
        last_out = out;
      }
    });
  }

  if (net && options.scrape_hz > 0.0) {
    // The /metrics antagonist: a scraper hitting the HTTP side of the same
    // epoll loop at the configured rate while frame traffic flows.
    threads.emplace_back([&] {
      const auto period = std::chrono::duration_cast<
          std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(1.0 / options.scrape_hz));
      start.wait();
      while (!stop.load(std::memory_order_relaxed)) {
        if (scrape_metrics(net->port())) {
          scrapes.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(period);
      }
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  start.count_down();
  if (mode == LoadgenMode::kServe) {
    // The calling thread IS the event loop: serve until every session has
    // completed its rounds, then drain client goodbyes (bounded grace).
    std::chrono::steady_clock::time_point grace_until{};
    net->run_until([&] {
      for (const auto& server : servers) {
        if (server->rounds_completed() < options.rounds) return false;
      }
      const auto now = std::chrono::steady_clock::now();
      if (grace_until == std::chrono::steady_clock::time_point{}) {
        grace_until = now + std::chrono::seconds(5);
      }
      return net->connections_closed() >= net->connections_accepted() ||
             now >= grace_until;
    });
  }
  // Workers self-terminate after `rounds`; join them first, then release
  // the antagonists.
  const std::size_t worker_count = spawns_workers ? sessions * workers : 0;
  for (std::size_t i = 0; i < worker_count; ++i) threads[i].join();
  const auto t1 = std::chrono::steady_clock::now();
  stop.store(true, std::memory_order_relaxed);
  threads.clear();  // joins ticker/monitor
  if (net && mode == LoadgenMode::kLoopback) {
    net->stop();
    net_thread.join();
  }

  LoadgenReport rep;
  rep.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  rep.fetch_ops = fetch_ops.load(std::memory_order_relaxed);
  rep.report_ops = report_ops.load(std::memory_order_relaxed);
  rep.ops_per_sec = rep.wall_seconds > 0.0
                        ? static_cast<double>(rep.fetch_ops + rep.report_ops) /
                              rep.wall_seconds
                        : 0.0;
  rep.monitor_sweeps = monitor_sweeps.load(std::memory_order_relaxed);
  rep.ticks = ticks.load(std::memory_order_relaxed);
  rep.scrapes = scrapes.load(std::memory_order_relaxed);
  for (const auto& server : servers) {
    rep.rounds_completed += server->rounds_completed();
  }
  if (mode == LoadgenMode::kRemote) {
    // No server handle here: a session's completed rounds is the min over
    // its workers' completed phases.
    for (std::size_t s = 0; s < sessions; ++s) {
      std::uint64_t done = phases[s * workers];
      for (std::size_t w = 1; w < workers; ++w) {
        done = std::min(done, phases[s * workers + w]);
      }
      rep.rounds_completed += done;
    }
  }

  const obs::RegistrySnapshot snap = registry.snapshot();
  const obs::HistogramSnapshot fetch =
      aggregate_histogram(snap, "protuner_harmony_fetch_ns");
  rep.fetch_p50_ns = fetch.p50();
  rep.fetch_p99_ns = fetch.p99();
  rep.fetch_p999_ns = fetch.p999();
  rep.fetch_max_ns = fetch.max;
  if (uses_sockets) {
    // Server-side decode-to-reply wire latency where this process hosts
    // the loop; client-observed call latency when driving a remote server
    // (those histograms live in the clients' own registry).
    const obs::HistogramSnapshot wire =
        mode == LoadgenMode::kRemote
            ? aggregate_histogram(client_registry.snapshot(),
                                  "protuner_net_client_fetch_ns")
            : aggregate_histogram(snap, "protuner_net_fetch_wire_ns");
    rep.wire_fetch_p50_ns = wire.p50();
    rep.wire_fetch_p99_ns = wire.p99();
    rep.wire_fetch_p999_ns = wire.p999();
    rep.wire_fetch_max_ns = wire.max;
    rep.net_bytes_in = aggregate_counter(snap, "protuner_net_bytes_in_total");
    rep.net_bytes_out =
        aggregate_counter(snap, "protuner_net_bytes_out_total");
    if (net) {
      rep.net_connections = net->connections_accepted();
      rep.net_decode_errors = net->decode_errors();
      rep.stall_dumps = net->stall_dumps();
    } else {
      rep.net_connections = sessions * workers;
    }
  }
  const obs::HistogramSnapshot round_wall =
      aggregate_histogram(snap, "protuner_harmony_round_wall_ns");
  rep.round_wall_p50_ns = round_wall.p50();
  rep.round_wall_p99_ns = round_wall.p99();
  rep.round_wall_p999_ns = round_wall.p999();
  rep.deadline_expiries =
      aggregate_counter(snap, "protuner_harmony_deadline_expiries_total");
  rep.discarded_reports =
      aggregate_counter(snap, "protuner_harmony_discarded_reports_total");
  rep.protocol_errors =
      aggregate_counter(snap, "protuner_harmony_protocol_errors_total");
  return rep;
}

std::string LoadgenReport::summary() const {
  std::ostringstream out;
  out << "wall            " << wall_seconds << " s\n"
      << "ops             " << (fetch_ops + report_ops) << " (" << fetch_ops
      << " fetch + " << report_ops << " report)\n"
      << "throughput      " << ops_per_sec << " ops/s\n"
      << "rounds          " << rounds_completed << "\n"
      << "fetch latency   p50 " << fetch_p50_ns << " ns · p99 "
      << fetch_p99_ns << " ns · p99.9 " << fetch_p999_ns << " ns · max "
      << fetch_max_ns << " ns\n"
      << "round wall      p50 " << round_wall_p50_ns << " ns · p99 "
      << round_wall_p99_ns << " ns · p99.9 " << round_wall_p999_ns
      << " ns\n"
      << "deadline        " << deadline_expiries << " expiries, "
      << discarded_reports << " discarded reports\n"
      << "protocol errors " << protocol_errors << "\n"
      << "antagonists     " << monitor_sweeps << " monitor sweeps, "
      << ticks << " ticks, " << scrapes << " scrapes\n";
  if (net_connections > 0 || wire_fetch_max_ns > 0.0) {
    out << "net             " << net_connections << " connections, "
        << net_bytes_in << " B in, " << net_bytes_out << " B out, "
        << net_decode_errors << " decode errors, " << stall_dumps
        << " stall dumps\n"
        << "fetch wire      p50 " << wire_fetch_p50_ns << " ns · p99 "
        << wire_fetch_p99_ns << " ns · p99.9 " << wire_fetch_p999_ns
        << " ns · max " << wire_fetch_max_ns << " ns\n";
  }
  return out.str();
}

}  // namespace protuner::apps
