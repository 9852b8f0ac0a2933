// staleload_sim: general-purpose experiment explorer. Runs one experiment
// configuration from command-line flags and prints the full result record —
// the single binary a user reaches for before scripting sweeps.
//
//   build/tools/staleload_sim --policy basic_li --model periodic --t 8
//       --lambda 0.9 --n 10 [--job-size exp:1] [--trials 5] [--adaptive]
//
// Models: periodic | continuous | update_on_access | individual
// Policies: random | k_subset:K | threshold:K:T | basic_li | aggressive_li |
//           hybrid_li | basic_li_k:K | jiq | jiq:sq[:K]
//
// Multi-dispatcher scale-out (board models only):
//   --dispatchers D            D cooperating dispatchers over one cluster,
//                              each with its own board or continuous view
//                              (D=1 is the paper's single dispatcher)
//   --dispatcher-split uniform|weighted   arrival thinning across dispatchers
//   --token-budget B           JIQ: per-dispatcher idle-token cap (0 = off)
//
// Large clusters: --board-repr auto|vector|bucketed selects the dispatch
// representation. "bucketed" runs the O(#levels) counted-board path (same
// per-level dispatch distributions, different RNG draws); "auto" (default)
// switches to it at 1024+ servers on eligible runs (no faults, not
// update_on_access).
//
// Fault injection (board models only):
//   --fault-spec S / --crash-rate R / --update-loss P / --max-staleness 2T
// Fault runs report the per-fault counters; --json emits the full record as
// one JSON object instead of the table.
//
// Workloads beyond homogeneous Poisson (src/workload/):
//   --arrival-spec S      poisson | mmpp:M1:M2:D1:D2 | ramp:PERIOD:AMP |
//                         flash:AT:MULT:RAMP:HOLD:DECAY | trace:PATH
//   --workload replay:DIR replay a recorded trace-v2 directory (from
//                         `staleload_lb --record DIR`); overrides n, T,
//                         model, jobs, and lambda from the manifest
//   --estimator E         told | fixed | cema[:ALPHA[:BUCKET]] — how LI
//                         policies learn lambda for K = lambda*T (alias of
//                         the older --rate-est)
//   --replay-metrics-out F  re-run trial 0 traced and write the
//                         obs::ReplayMetrics JSON that tools/playdiff
//                         compares against a live recording's metrics.json
//
// Observability (src/obs/):
//   --trace               re-run trial 0 with a trace recorder attached and
//                         print the event/herd-diagnostic summary block
//   --probe-interval X    queue-trajectory sampling grid (default T/8)
//   --trace-out PREFIX    (implies --trace) also write the artifacts
//                         PREFIX.events.csv, PREFIX.trajectory.csv,
//                         PREFIX.trace.json (Chrome/Perfetto trace_event
//                         format), PREFIX.timeline.svg
#include <fstream>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string_view>

#include "bench_common.h"
#include "driver/adaptive.h"
#include "driver/report.h"
#include "driver/table.h"
#include "driver/trace_support.h"
#include "driver/trial_workload.h"
#include "loadinfo/delay_distribution.h"
#include "obs/chrome_trace.h"
#include "obs/export_csv.h"
#include "obs/replay_metrics.h"
#include "obs/svg_timeline.h"
#include "queueing/theory.h"
#include "sim/rng.h"

namespace {

stale::driver::UpdateModel parse_model(const std::string& name) {
  using stale::driver::UpdateModel;
  for (UpdateModel model :
       {UpdateModel::kPeriodic, UpdateModel::kContinuous,
        UpdateModel::kUpdateOnAccess, UpdateModel::kIndividual}) {
    if (stale::driver::update_model_name(model) == name) return model;
  }
  throw std::invalid_argument("unknown --model '" + name + "'");
}

void write_artifact(const std::string& path,
                    const std::function<void(std::ostream&)>& writer) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open '" + path + "' for writing");
  writer(out);
  // Progress notes go to stderr so --json keeps stdout machine-readable.
  std::cerr << "# wrote " << path << "\n";
}

// Re-runs trial 0 of `config` with a recorder attached (bit-identical to the
// untraced trial by the obs contract), prints the diagnostic summary, and
// optionally dumps the artifact files.
void run_trace(const stale::driver::Cli& cli,
               const stale::driver::ExperimentConfig& config,
               bool print_summary) {
  stale::driver::TraceRunOptions options;
  options.probe_interval = cli.get_double("probe-interval", 0.0);
  const stale::driver::TraceReport report = stale::driver::run_traced_trial(
      config, stale::sim::trial_seed(config.base_seed, 0), options);
  if (print_summary) {
    stale::driver::print_trace_summary(std::cout, config, report);
  }

  const std::string prefix = cli.get("trace-out", "");
  if (prefix.empty()) return;
  write_artifact(prefix + ".events.csv", [&](std::ostream& out) {
    stale::obs::write_events_csv(out, report.recorder);
  });
  write_artifact(prefix + ".trace.json", [&](std::ostream& out) {
    stale::obs::write_chrome_trace(out, report.recorder);
  });
  if (report.trajectory.samples.empty()) {
    std::cerr << "# trajectory empty (run shorter than warmup window); "
                 "skipping trajectory csv + svg\n";
    return;
  }
  write_artifact(prefix + ".trajectory.csv", [&](std::ostream& out) {
    stale::obs::write_trajectory_csv(out, report.trajectory);
  });
  write_artifact(prefix + ".timeline.svg", [&](std::ostream& out) {
    stale::obs::TimelineOptions svg;
    svg.title = config.policy + " under " +
                stale::driver::update_model_name(config.model) +
                " (T=" + stale::driver::Table::fmt(config.update_interval) +
                "): per-server queue lengths";
    out << stale::obs::render_queue_timeline(report.trajectory, svg);
  });
}

// Re-runs trial 0 traced (percentiles + dispatch shares + herd verdict) and
// writes the obs::ReplayMetrics record tools/playdiff consumes. This is the
// sim half of the record->replay gate: the live half is the metrics.json
// that `staleload_lb --record` drops next to the trace.
void write_sim_replay_metrics(const stale::driver::Cli& cli,
                              const stale::driver::ExperimentConfig& base,
                              const std::string& path) {
  stale::driver::ExperimentConfig config = base;
  config.keep_response_samples = true;
  stale::driver::TraceRunOptions options;
  options.probe_interval = cli.get_double("probe-interval", 0.0);
  const stale::driver::TraceReport report = stale::driver::run_traced_trial(
      config, stale::sim::trial_seed(config.base_seed, 0), options);

  stale::obs::ReplayMetrics metrics;
  metrics.source = "sim";
  metrics.jobs = report.trial.measured_jobs;
  metrics.duration = report.t_end - report.t_begin;
  metrics.mean_response = report.trial.mean_response;
  metrics.p50_response = report.trial.p50_response;
  metrics.p90_response = report.trial.p90_response;
  metrics.p99_response = report.trial.p99_response;
  metrics.dispatch_share.reserve(report.share.counts.size());
  for (const std::uint64_t count : report.share.counts) {
    metrics.dispatch_share.push_back(
        report.share.total == 0 ? 0.0
                                : static_cast<double>(count) /
                                      static_cast<double>(report.share.total));
  }
  metrics.has_herd = true;
  metrics.herd_autocorr = report.herd.autocorr_peak;
  metrics.herd_amplitude = report.herd.amplitude;
  metrics.herding = report.herd.herding();

  write_artifact(path, [&](std::ostream& out) {
    stale::obs::write_replay_metrics(out, metrics);
  });
  if (report.trial.trace_wraps > 0) {
    std::cerr << "# warning: trace wrapped " << report.trial.trace_wraps
              << " times during the metrics trial\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> flags = {
      "policy", "model",    "t",         "lambda",    "n",
      "job-size", "delay",  "rate-est",  "lambda-err", "precision",
      "probe-interval", "trace-out", "arrival-spec", "workload",
      "estimator", "replay-metrics-out"};
  const std::vector<std::string> switches = {"bursty", "know-age", "adaptive",
                                             "json", "trace"};
  return stale::bench::run_bench(
      argc, argv, flags, switches, [](const stale::driver::Cli& cli) {
        stale::driver::ExperimentConfig config;
        config.num_servers = static_cast<int>(cli.get_int("n", 10));
        config.lambda = cli.get_double("lambda", 0.9);
        config.model = parse_model(cli.get("model", "periodic"));
        config.update_interval = cli.get_double("t", 1.0);
        config.delay_kind =
            stale::loadinfo::parse_delay_kind(cli.get("delay", "constant"));
        config.know_actual_age = cli.has("know-age");
        config.bursty = cli.has("bursty");
        config.policy = cli.get("policy", "basic_li");
        config.job_size = cli.get("job-size", "exp:1");
        config.arrival_spec = cli.get("arrival-spec", "poisson");
        // --estimator is the canonical spelling; --rate-est stays as the
        // pre-replay alias so existing sweep scripts keep working.
        config.rate_estimator =
            cli.get("estimator", cli.get("rate-est", "told"));
        config.lambda_error_factor = cli.get_double("lambda-err", 1.0);
        cli.apply_run_scale(config);

        // Replay overrides cluster shape, update model, and job count from
        // the recorded manifest, so it is applied after every other flag.
        const std::string workload_spec = cli.get("workload", "");
        if (!workload_spec.empty()) {
          constexpr std::string_view kReplayPrefix = "replay:";
          if (workload_spec.rfind(kReplayPrefix, 0) != 0 ||
              workload_spec.size() == kReplayPrefix.size()) {
            throw std::invalid_argument(
                "--workload expects replay:DIR, got '" + workload_spec + "'");
          }
          const std::string dir =
              workload_spec.substr(kReplayPrefix.size());
          stale::driver::configure_replay(config, dir);
          std::cerr << "# replay: " << dir << " (" << config.num_jobs
                    << " recorded jobs, n = " << config.num_servers
                    << ", T = " << config.update_interval << ")\n";
        }

        const bool tracing = cli.has("trace") || cli.has("trace-out");

        const std::string metrics_out = cli.get("replay-metrics-out", "");

        if (cli.has("json")) {
          const auto result = stale::driver::run_experiment(config);
          if (result.trace_wraps > 0) {
            std::cerr << "# warning: trace wrapped " << result.trace_wraps
                      << " times\n";
          }
          stale::driver::write_json_report(std::cout, config, result,
                                           config.trials);
          // Keep stdout valid JSON: artifacts only, no summary block.
          if (cli.has("trace-out")) run_trace(cli, config, false);
          if (!metrics_out.empty()) {
            write_sim_replay_metrics(cli, config, metrics_out);
          }
          return;
        }

        std::cout << "# staleload_sim: " << config.policy << " under "
                  << stale::driver::update_model_name(config.model)
                  << " (n = " << config.num_servers
                  << ", lambda = " << config.lambda
                  << ", T = " << config.update_interval
                  << ", jobs = " << config.job_size << ")\n";
        if (config.dispatchers > 1) {
          std::cout << "# dispatchers = " << config.dispatchers << " ("
                    << stale::dispatch::dispatcher_split_name(
                           config.dispatcher_split)
                    << " split)\n";
        }

        stale::driver::ExperimentResult result;
        int trials_used = config.trials;
        if (cli.has("adaptive")) {
          stale::driver::AdaptiveOptions options;
          options.relative_precision = cli.get_double("precision", 0.03);
          const auto adaptive =
              stale::driver::run_until_confident(config, options);
          result = std::move(adaptive.result);
          trials_used = adaptive.trials_used;
          std::cout << "# adaptive: " << trials_used << " trials, "
                    << (adaptive.converged ? "converged" : "budget exhausted")
                    << "\n";
        } else {
          result = stale::driver::run_experiment(config);
        }
        if (result.trace_wraps > 0) {
          std::cerr << "# warning: trace wrapped " << result.trace_wraps
                    << " times\n";
        }

        using stale::driver::Table;
        Table table({"metric", "value"});
        table.add_row({"mean response", Table::fmt_ci(result.mean(),
                                                      result.ci90())});
        const auto box = result.box();
        table.add_row({"median (trials)", Table::fmt(box.median)});
        table.add_row({"p25..p75", Table::fmt(box.p25) + " .. " +
                                       Table::fmt(box.p75)});
        table.add_row({"min..max", Table::fmt(box.min) + " .. " +
                                       Table::fmt(box.max)});
        table.add_row({"trials", std::to_string(trials_used)});

        if (config.fault.any() || config.churn.any()) {
          const auto& f = result.faults;
          if (config.fault.any()) {
            table.add_row({"fault spec", config.fault.to_string()});
          } else {
            table.add_row({"churn spec", config.churn.to_string()});
          }
          table.add_row({"crashes / recoveries",
                         std::to_string(f.crashes) + " / " +
                             std::to_string(f.recoveries)});
          table.add_row({"jobs lost / requeued / dropped",
                         std::to_string(f.jobs_lost) + " / " +
                             std::to_string(f.jobs_requeued) + " / " +
                             std::to_string(f.jobs_dropped)});
          table.add_row({"dispatch retries",
                         std::to_string(f.dispatch_retries)});
          table.add_row({"updates lost / delayed",
                         std::to_string(f.updates_lost) + " / " +
                             std::to_string(f.updates_delayed)});
          table.add_row({"estimator drops",
                         std::to_string(f.estimator_drops)});
          table.add_row({"stale fallbacks / sanitizer fixes",
                         std::to_string(f.stale_fallbacks) + " / " +
                             std::to_string(f.sanitizer_fixes)});
        }

        // Analytic context for homogeneous exponential clusters.
        if (config.job_size.rfind("exp:1", 0) == 0 && config.lambda < 1.0) {
          table.add_row(
              {"M/M/1 (random split)",
               Table::fmt(stale::queueing::theory::mm1_response_time(
                   config.lambda))});
          table.add_row(
              {"M/M/c (central queue)",
               Table::fmt(stale::queueing::theory::mmc_response_time(
                   static_cast<std::size_t>(config.num_servers),
                   config.lambda))});
        }
        table.print(std::cout, cli.csv());
        if (tracing) run_trace(cli, config, true);
        if (!metrics_out.empty()) {
          write_sim_replay_metrics(cli, config, metrics_out);
        }
      });
}
