// staleload_lb: the live load-balancer daemon (src/net/dispatcher.h).
//
//   build/tools/staleload_lb --backends 4 --policy k_subset:4
//       --schedule periodic --update-period 1.0 [--tcp-port P] [--udp-port P]
//       [--duration S] [--faults update_loss=0.2] [--trace-out PREFIX]
//
// With port 0 (the default) the OS picks; the chosen ports are printed as
//   LB LISTENING tcp=<port> udp=<port>
// so harnesses can start the daemon first and parse the line. Backends
// register over UDP; once --backends of them have, the daemon prints
// "LB READY backends=N" and serves until --duration elapses or SIGINT /
// SIGTERM arrives.
//
// --trace-out PREFIX records every dispatch decision with a TraceRecorder
// and writes PREFIX.events.csv (replayable via obs::import_events_csv) plus
// PREFIX.herd.json — the herd-diagnostic verdict (obs::detect_herd) over the
// live trace. On exit a one-line stats JSON goes to stdout.
//
// --record DIR writes a trace-v2 directory — manifest.txt, arrivals.trace,
// loads.csv, metrics.json — that `staleload_sim --workload replay:DIR`
// replays deterministically and `tools/playdiff` gates against. Requires
// --schedule periodic and a fault-free run (see src/net/record.h).
//
// --estimator speaks the grammar staleload_sim shares
// (workload::make_rate_estimator); --help prints every flag.
#include <sys/stat.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>

#include "fault/fault_spec.h"
#include "health/churn_spec.h"
#include "net/dispatcher.h"
#include "net/record.h"
#include "obs/export_csv.h"
#include "obs/herd.h"
#include "obs/replay_metrics.h"
#include "obs/trace_recorder.h"
#include "sim/spec.h"
#include "workload/replay.h"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

void install_signal_handlers() {
  struct sigaction action {};
  action.sa_handler = handle_signal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

struct Args {
  stale::net::DispatcherOptions options;
  std::string trace_out;
  std::string record_dir;
};

const stale::sim::FlagTable kFlags = {
    "staleload_lb",
    "The live load-balancer daemon: waits for --backends registrations, "
    "then dispatches client jobs.",
    {
        {"backends", "N", "backend registrations to wait for (>= 1)"},
        {"policy", "SPEC", "dispatch policy (default basic_li)"},
        {"schedule", "SCHED", "load reports: periodic|piggyback"},
        {"update-period", "T", "report period T that LI interprets against"},
        {"host", "H", "address to bind (default 127.0.0.1)"},
        {"tcp-port", "P", "client port (default 0 = ephemeral)"},
        {"udp-port", "P", "backend control port (default 0 = ephemeral)"},
        {"estimator", "SPEC",
         "windowed[:W]|ewma:TAU|cema[:A[:B]]|fixed:RATE (default windowed)"},
        {"duration", "S", "seconds to serve (default: until SIGINT)"},
        {"seed", "S", "RNG seed"},
        {"faults", "SPEC", "report-path faults, e.g. loss=0.2,delay=0.05"},
        {"health", "SPEC",
         "health keys of a churn spec, e.g. suspect=2T,evict=4T,retries=3"},
        {"dispatch-timeout", "S", "re-dispatch a job unanswered this long"},
        {"trace-out", "PREFIX", "write PREFIX.events.csv + PREFIX.herd.json"},
        {"record", "DIR", "write a trace-v2 recording to DIR"},
    },
    /*positionals=*/{},
};

Args parse_args(const stale::sim::FlagParser& flags) {
  Args args;
  stale::net::DispatcherOptions& options = args.options;
  options.status_out = &std::cout;
  options.host = flags.get("host", options.host);
  options.tcp_port = flags.integer<std::uint16_t>("tcp-port", options.tcp_port);
  options.udp_port = flags.integer<std::uint16_t>("udp-port", options.udp_port);
  options.num_backends = flags.integer<int>("backends", 0);
  options.policy_spec = flags.get("policy", options.policy_spec);
  if (flags.has("schedule")) {
    options.schedule =
        stale::net::parse_update_schedule(flags.get("schedule", ""));
  }
  options.update_period = flags.number("update-period", options.update_period);
  options.estimator_spec = flags.get("estimator", options.estimator_spec);
  options.duration = flags.number("duration", options.duration);
  options.seed = flags.integer<std::uint64_t>("seed", options.seed);
  options.faults = stale::fault::FaultSpec::parse(flags.get("faults", ""));
  options.dispatch_timeout = flags.number("dispatch-timeout", 0.0);
  args.trace_out = flags.get("trace-out", "");
  args.record_dir = flags.get("record", "");
  if (options.num_backends <= 0) {
    throw std::invalid_argument("--backends must be >= 1");
  }
  if (!args.record_dir.empty()) {
    if (options.schedule != stale::net::UpdateSchedule::kPeriodic) {
      throw std::invalid_argument(
          "--record requires --schedule periodic (the replay driver maps "
          "the recorded LOAD cadence onto the individual-timer model)");
    }
    if (options.faults.any()) {
      throw std::invalid_argument(
          "--record with --faults would bake lost jobs into the trace; "
          "record a fault-free run");
    }
  }
  const std::string health_spec = flags.get("health", "");
  if (!health_spec.empty()) {
    const auto spec = stale::health::ChurnSpec::parse(health_spec);
    if (spec.any()) {
      throw std::invalid_argument(
          "--health takes only health keys; churn-process keys "
          "(restart/leave/slow) belong to the simulator's --churn-spec");
    }
    options.health = spec.resolved_health(options.update_period);
    options.max_redispatch = spec.max_retries;
  } else if (options.dispatch_timeout > 0.0) {
    throw std::invalid_argument(
        "--dispatch-timeout needs --health (the timeouts feed the health "
        "state machine)");
  }
  return args;
}

void write_stats_json(std::ostream& os, const Args& args,
                      const stale::net::DispatcherStats& stats) {
  const auto saved_precision = os.precision();
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\"config\": {\"policy\": \"" << args.options.policy_spec << "\""
     << ", \"schedule\": \""
     << stale::net::update_schedule_name(args.options.schedule) << "\""
     << ", \"update_period\": " << args.options.update_period
     << ", \"backends\": " << args.options.num_backends
     << ", \"seed\": " << args.options.seed << "}, \"result\": {"
     << "\"jobs_received\": " << stats.jobs_received
     << ", \"jobs_dispatched\": " << stats.jobs_dispatched
     << ", \"jobs_completed\": " << stats.jobs_completed
     << ", \"jobs_rejected\": " << stats.jobs_rejected
     << ", \"jobs_orphaned\": " << stats.jobs_orphaned
     << ", \"reports_received\": " << stats.reports_received
     << ", \"reports_dropped\": " << stats.reports_dropped
     << ", \"reports_delayed\": " << stats.reports_delayed
     << ", \"dispatch_timeouts\": " << stats.dispatch_timeouts
     << ", \"jobs_redispatched\": " << stats.jobs_redispatched
     << ", \"backend_evictions\": " << stats.backend_evictions
     << ", \"backend_rejoins\": " << stats.backend_rejoins
     << ", \"degraded_entries\": " << stats.degraded_entries
     << ", \"elapsed\": " << stats.stopped_at - stats.started_at
     << ", \"per_backend_dispatched\": [";
  for (std::size_t i = 0; i < stats.per_backend_dispatched.size(); ++i) {
    if (i > 0) os << ", ";
    os << stats.per_backend_dispatched[i];
  }
  os << "]}}\n";
  os.precision(saved_precision);
}

void write_herd_json(std::ostream& os, const stale::obs::HerdReport& herd) {
  const auto saved_precision = os.precision();
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\"num_servers\": " << herd.num_servers
     << ", \"phases\": " << herd.phases
     << ", \"amplitude\": " << herd.amplitude
     << ", \"global_swing\": " << herd.global_swing
     << ", \"oscillation_period\": " << herd.oscillation_period
     << ", \"autocorr_peak\": " << herd.autocorr_peak
     << ", \"peak_concentration\": " << herd.peak_concentration
     << ", \"mean_concentration\": " << herd.mean_concentration
     << ", \"uniform_share\": " << herd.uniform_share
     << ", \"herding\": " << (herd.herding() ? "true" : "false") << "}\n";
  os.precision(saved_precision);
}

void write_artifact(const std::string& path,
                    const std::function<void(std::ostream&)>& writer) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open '" + path + "'");
  writer(out);
  std::cerr << "# wrote " << path << "\n";
}

void ensure_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0775) == 0 || errno == EEXIST) return;
  throw std::runtime_error("cannot create directory '" + path + "'");
}

}  // namespace

int main(int argc, char** argv) {
  using stale::sim::FlagParser;
  return stale::sim::run_tool(argc, argv, kFlags, [](const FlagParser& flags) {
    Args args = parse_args(flags);
    install_signal_handlers();

    // --record needs the obs recorder too: its decision events feed the
    // herd verdict folded into metrics.json.
    stale::obs::TraceRecorder recorder;
    if (!args.trace_out.empty() || !args.record_dir.empty()) {
      args.options.trace = &recorder;
    }
    stale::net::TraceV2Recorder trace_v2;
    if (!args.record_dir.empty()) {
      ensure_dir(args.record_dir);  // fail before serving, not after
      args.options.record = &trace_v2;
    }

    stale::net::Dispatcher dispatcher(args.options);
    dispatcher.run(&g_stop);

    const stale::net::DispatcherStats stats = dispatcher.stats();
    write_stats_json(std::cout, args, stats);

    // The herd verdict over the live trace, shared by --trace-out's
    // herd.json and --record's metrics.json.
    bool have_herd = false;
    stale::obs::HerdReport herd;
    if (recorder.count(stale::obs::TraceEventKind::kDecision) > 0) {
      stale::obs::HerdOptions herd_options;
      herd_options.phase_length = args.options.update_period;
      herd_options.num_servers = args.options.num_backends;
      herd = stale::obs::detect_herd(recorder, herd_options);
      have_herd = true;
    }

    if (!args.trace_out.empty()) {
      write_artifact(args.trace_out + ".events.csv", [&](std::ostream& out) {
        stale::obs::write_events_csv(out, recorder);
      });
      if (have_herd) {
        write_artifact(args.trace_out + ".herd.json", [&](std::ostream& out) {
          write_herd_json(out, herd);
        });
      }
    }

    if (!args.record_dir.empty()) {
      stale::workload::ReplayManifest manifest;
      manifest.backends = args.options.num_backends;
      manifest.update_period = args.options.update_period;
      manifest.schedule =
          stale::net::update_schedule_name(args.options.schedule);
      manifest.policy = args.options.policy_spec;
      manifest.seed = args.options.seed;
      const std::uint64_t skipped =
          trace_v2.write_trace(args.record_dir, manifest);
      if (skipped > 0) {
        std::cerr << "# record: dropped " << skipped
                  << " incomplete jobs (no DONE before shutdown)\n";
      }

      stale::obs::ReplayMetrics metrics =
          trace_v2.live_metrics(stats.per_backend_dispatched);
      if (have_herd) {
        metrics.has_herd = true;
        metrics.herd_autocorr = herd.autocorr_peak;
        metrics.herd_amplitude = herd.amplitude;
        metrics.herding = herd.herding();
      }
      write_artifact(args.record_dir + "/" + stale::workload::kMetricsFile,
                     [&](std::ostream& out) {
                       stale::obs::write_replay_metrics(out, metrics);
                     });
      std::cerr << "# record: trace-v2 with " << trace_v2.completed()
                << " completed jobs in " << args.record_dir << "\n";
    }
    return 0;
  });
}
