// staleload_loadgen: open-loop Poisson client for the live dispatcher
// (src/net/loadgen.h).
//
//   build/tools/staleload_loadgen --target 127.0.0.1:9000 --lambda 40
//       --duration 10 [--drain S] [--warmup N] [--max-jobs N] [--seed S]
//       [--json PATH]
//
// Offered load is open loop: the exponential send schedule never waits for
// completions. --target accepts a comma-separated list of dispatcher shards;
// arrivals round-robin across them with failover past disconnected shards.
// The response-time report (mean/p50/p90/p99 plus per-backend and per-target
// counts) is written as one staleload_sim-shaped JSON object to --json
// (default stdout). Exits nonzero when nothing completed — a dead
// dispatcher should fail a CI smoke step loudly. --help prints every flag.
#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "net/loadgen.h"
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
}

const stale::sim::FlagTable kFlags = {
    "staleload_loadgen",
    "Open-loop Poisson client for the live dispatcher; prints a JSON "
    "response-time report.",
    {
        {"target", "HOST:PORT[,...]", "dispatcher client endpoints (required)"},
        {"lambda", "R", "offered jobs per second"},
        {"duration", "S", "seconds to send"},
        {"drain", "S", "seconds to wait for replies after sending"},
        {"warmup", "N", "jobs excluded from the statistics"},
        {"max-jobs", "N", "stop sending after N jobs (0 = no cap)"},
        {"seed", "S", "RNG seed"},
        {"connect-retries", "N", "connection attempts per target"},
        {"connect-backoff", "S", "seconds between connection attempts"},
        {"json", "PATH", "write the report to PATH (default stdout)"},
    },
    /*positionals=*/{},
};

}  // namespace

int main(int argc, char** argv) {
  using stale::sim::FlagParser;
  return stale::sim::run_tool(argc, argv, kFlags, [](const FlagParser& flags) {
    stale::net::LoadGenOptions options;
    options.status_out = &std::cerr;  // keep stdout JSON-only by default
    if (!flags.has("target")) {
      throw std::invalid_argument("--target is required");
    }
    options.targets = stale::net::parse_endpoint_list(flags.get("target", ""));
    options.lambda = flags.number("lambda", options.lambda);
    options.duration = flags.number("duration", options.duration);
    options.drain = flags.number("drain", options.drain);
    options.warmup_jobs =
        flags.integer<std::uint64_t>("warmup", options.warmup_jobs);
    options.max_jobs =
        flags.integer<std::uint64_t>("max-jobs", options.max_jobs);
    options.seed = flags.integer<std::uint64_t>("seed", options.seed);
    options.connect_retries =
        flags.integer<int>("connect-retries", options.connect_retries);
    options.connect_backoff =
        flags.number("connect-backoff", options.connect_backoff);
    const std::string json_path = flags.get("json", "");

    install_signal_handlers();
    stale::net::LoadGen loadgen(options);
    loadgen.run(&g_stop);

    if (json_path.empty()) {
      stale::net::write_loadgen_json(std::cout, options, loadgen.report());
    } else {
      std::ofstream out(json_path);
      if (!out) {
        throw std::runtime_error("cannot open '" + json_path + "'");
      }
      stale::net::write_loadgen_json(out, options, loadgen.report());
    }
    return loadgen.report().completed > 0 ? 0 : 1;
  });
}
