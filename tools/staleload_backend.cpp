// staleload_backend: one toy FIFO server for the live dispatcher
// (src/net/backend.h).
//
//   build/tools/staleload_backend --index 0 --report-to 127.0.0.1:9100
//       [--port P] [--update-period T] [--mean-service S] [--seed S]
//       [--duration S]
//
// Prints "BACKEND LISTENING index=<i> tcp=<port>" once bound, then HELLOs
// the dispatcher's UDP control endpoint until the data-plane connection
// arrives. --report-to accepts a comma-separated list for the sharded
// topology (one HELLO target + LOAD fan-out per dispatcher; DONE replies
// route back over the connection each job arrived on). --update-period 0
// (the default) sends no standing LOAD reports — the dispatcher's piggyback
// schedule learns queue lengths from DONE replies instead. Runs until
// SIGINT/SIGTERM or --duration seconds. --help prints every flag.
#include <atomic>
#include <cmath>
#include <csignal>
#include <iostream>
#include <stdexcept>
#include <string>
#include <unistd.h>

#include "net/backend.h"
#include "net/socket.h"
#include "sim/spec.h"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

void install_signal_handlers() {
  struct sigaction action {};
  action.sa_handler = handle_signal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGALRM, &action, nullptr);
}

const stale::sim::FlagTable kFlags = {
    "staleload_backend",
    "One toy FIFO server: registers with the dispatcher(s) at --report-to "
    "and serves the jobs they send.",
    {
        {"index", "I", "backend index the dispatcher knows this server by"},
        {"report-to", "HOST:PORT[,...]",
         "dispatcher UDP control endpoints (required)"},
        {"host", "H", "address to bind (default 127.0.0.1)"},
        {"port", "P", "data-plane TCP port (default 0 = ephemeral)"},
        {"update-period", "T", "LOAD report period (0 = none, piggyback)"},
        {"mean-service", "S", "mean exponential service time in seconds"},
        {"hello-period", "S", "HELLO retry period until connected"},
        {"seed", "S", "RNG seed"},
        {"duration", "S", "seconds to run (default: until SIGINT)"},
    },
    /*positionals=*/{},
};

}  // namespace

int main(int argc, char** argv) {
  using stale::sim::FlagParser;
  return stale::sim::run_tool(argc, argv, kFlags, [](const FlagParser& flags) {
    stale::net::BackendOptions options;
    options.status_out = &std::cout;
    options.host = flags.get("host", options.host);
    options.tcp_port = flags.integer<std::uint16_t>("port", options.tcp_port);
    options.index = flags.integer<int>("index", options.index);
    if (!flags.has("report-to")) {
      throw std::invalid_argument("--report-to is required");
    }
    options.report_to =
        stale::net::parse_endpoint_list(flags.get("report-to", ""));
    options.update_period =
        flags.number("update-period", options.update_period);
    options.mean_service = flags.number("mean-service", options.mean_service);
    options.hello_period = flags.number("hello-period", options.hello_period);
    options.seed = flags.integer<std::uint64_t>("seed", options.seed);
    const double duration = flags.number("duration", 0.0);

    install_signal_handlers();
    // The event loop only honors the stop flag, so a bounded run is just a
    // SIGALRM wired to the same handler as SIGINT.
    if (duration > 0.0) {
      alarm(static_cast<unsigned>(std::ceil(duration)));
    }

    stale::net::Backend backend(options);
    backend.run(&g_stop);
    std::cout << "BACKEND DONE index=" << options.index
              << " served=" << backend.stats().jobs_served
              << " max_queue=" << backend.stats().max_queue_len << std::endl;
    return 0;
  });
}
