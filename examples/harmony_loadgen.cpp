// Serving-soak driver for apps::run_loadgen: N concurrent tuning sessions
// × P ranks of fetch/report traffic with heavy-tailed (Pareto) think
// times, optional deadline ticker and monitor/exporter antagonists.  Use
// it to size the serving tier interactively; perfbench's serve_hot_session
// workload measures the same in-process hot path end to end (ops_per_s,
// call_p50_us):
//
//   harmony_loadgen --sessions 8 --ranks 64 --rounds 200 --workers 4
//   harmony_loadgen --sessions 4 --ranks 16 --monitor --tick-hz 1000
//       --timeout-ms 50                 # one command line
//
// All results come from the obs:: histograms the servers publish anyway
// (aggregated across session labels), so what this prints is exactly what
// a Prometheus scrape of the process would see.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "apps/harmony_loadgen.h"

using namespace protuner;

namespace {

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
         "  --sessions N     concurrent sessions        (default 4)\n"
         "  --ranks P        ranks per session          (default 16)\n"
         "  --workers W      worker threads per session (default 2)\n"
         "  --rounds R       rounds per session         (default 200)\n"
         "  --dims D         configuration dimensions   (default 4)\n"
         "  --think SEC      clean think time f         (default 50e-6)\n"
         "  --rho RHO        noise throughput rho       (default 0.3)\n"
         "  --alpha A        Pareto tail index          (default 1.7)\n"
         "  --no-noise       deterministic think times\n"
         "  --pacing         busy-wait the drawn think time\n"
         "  --timeout-ms MS  round report deadline      (default off)\n"
         "  --tick-hz HZ     Server::tick() ticker      (default off)\n"
         "  --monitor        stats/metrics exporter antagonist\n"
         "  --scrape-hz HZ   HTTP /metrics scraper antagonist (socket\n"
         "                   modes; default off)\n"
         "  --seed S         rng seed                   (default 42)\n"
         "  --loopback       drive the traffic through the wire protocol\n"
         "                   against an in-process localhost server\n"
         "  --serve PORT     host the sessions on PORT and run the event\n"
         "                   loop; a --remote loadgen drives the traffic\n"
         "  --remote H:P     drive traffic against a --serve loadgen at\n"
         "                   host H port P (same sessions/ranks/rounds)\n";
}

}  // namespace

int main(int argc, char** argv) {
  apps::LoadgenOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(arg, "--sessions") == 0 && has_value) {
      options.sessions = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(arg, "--ranks") == 0 && has_value) {
      options.ranks = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(arg, "--workers") == 0 && has_value) {
      options.workers = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(arg, "--rounds") == 0 && has_value) {
      options.rounds = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(arg, "--dims") == 0 && has_value) {
      options.dims = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(arg, "--think") == 0 && has_value) {
      options.think_mean = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(arg, "--rho") == 0 && has_value) {
      options.rho = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(arg, "--alpha") == 0 && has_value) {
      options.alpha = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(arg, "--no-noise") == 0) {
      options.heavy_tail = false;
    } else if (std::strcmp(arg, "--pacing") == 0) {
      options.think_pacing = true;
    } else if (std::strcmp(arg, "--timeout-ms") == 0 && has_value) {
      options.report_timeout =
          std::chrono::duration<double>(std::strtod(argv[++i], nullptr) /
                                        1000.0);
    } else if (std::strcmp(arg, "--tick-hz") == 0 && has_value) {
      options.tick_hz = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(arg, "--monitor") == 0) {
      options.monitor = true;
    } else if (std::strcmp(arg, "--scrape-hz") == 0 && has_value) {
      options.scrape_hz = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(arg, "--seed") == 0 && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(arg, "--loopback") == 0) {
      options.mode = apps::LoadgenMode::kLoopback;
    } else if (std::strcmp(arg, "--serve") == 0 && has_value) {
      options.mode = apps::LoadgenMode::kServe;
      options.port =
          static_cast<std::uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(arg, "--remote") == 0 && has_value) {
      options.mode = apps::LoadgenMode::kRemote;
      const std::string hp = argv[++i];
      const std::size_t colon = hp.rfind(':');
      if (colon == std::string::npos) {
        std::cerr << "--remote expects HOST:PORT\n";
        return 2;
      }
      options.remote_host = hp.substr(0, colon);
      options.port = static_cast<std::uint16_t>(
          std::strtoul(hp.c_str() + colon + 1, nullptr, 10));
    } else {
      usage(argv[0]);
      return 2;
    }
  }

  std::cout << "harmony_loadgen: " << options.sessions << " session(s) x "
            << options.ranks << " rank(s), " << options.workers
            << " worker(s)/session, " << options.rounds << " round(s)\n";
  const apps::LoadgenReport report = apps::run_loadgen(options);
  std::cout << report.summary();
  return 0;
}
