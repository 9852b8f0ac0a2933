#include "driver/experiment.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dispatch/jiq.h"
#include "driver/multi_dispatcher.h"
#include "driver/trial_workload.h"
#include "driver/update_on_access.h"
#include "policy/policy_factory.h"
#include "queueing/cluster.h"
#include "queueing/metrics.h"
#include "runtime/thread_pool.h"
#include "sim/rng.h"
#include "workload/arrival_spec.h"
#include "workload/bursty_process.h"
#include "workload/job_size.h"

namespace stale::driver {

std::string update_model_name(UpdateModel model) {
  switch (model) {
    case UpdateModel::kPeriodic:
      return "periodic";
    case UpdateModel::kContinuous:
      return "continuous";
    case UpdateModel::kUpdateOnAccess:
      return "update_on_access";
    case UpdateModel::kIndividual:
      return "individual";
  }
  throw std::logic_error("update_model_name: bad enum");
}

namespace {

void validate(const ExperimentConfig& config) {
  if (config.num_servers < 1) {
    throw std::invalid_argument("ExperimentConfig: num_servers must be >= 1");
  }
  if (config.lambda <= 0.0) {
    throw std::invalid_argument("ExperimentConfig: lambda must be > 0");
  }
  if (config.update_interval <= 0.0) {
    throw std::invalid_argument("ExperimentConfig: update_interval must be > 0");
  }
  if (config.warmup_jobs >= config.num_jobs) {
    throw std::invalid_argument("ExperimentConfig: warmup >= num_jobs");
  }
  if (config.trials < 1) {
    throw std::invalid_argument("ExperimentConfig: trials must be >= 1");
  }
  config.fault.validate();
  config.churn.validate();
  if (config.churn.any()) {
    if (config.fault.any()) {
      throw std::invalid_argument(
          "ExperimentConfig: churn and fault injection are mutually "
          "exclusive (the fault path hands the dispatcher ground-truth "
          "liveness; the churn path makes it earn one through the health "
          "subsystem)");
    }
    if (config.model != UpdateModel::kPeriodic &&
        config.model != UpdateModel::kIndividual) {
      throw std::invalid_argument(
          "ExperimentConfig: churn is only supported for the periodic and "
          "individual board models (the health subsystem watches per-server "
          "report recency, which the other models do not produce)");
    }
  }
  if (config.dispatchers < 1) {
    throw std::invalid_argument("ExperimentConfig: dispatchers must be >= 1");
  }
  if (config.jiq_token_budget < 0) {
    throw std::invalid_argument(
        "ExperimentConfig: jiq_token_budget must be >= 0");
  }
  if (config.model == UpdateModel::kUpdateOnAccess &&
      (config.dispatchers > 1 || dispatch::is_jiq_spec(config.policy))) {
    throw std::invalid_argument(
        "ExperimentConfig: the update_on_access model runs its own "
        "per-client engine: no multiple dispatchers and no JIQ policy");
  }
  if (config.replay == nullptr) {
    workload::validate_arrival_spec(config.arrival_spec);
  }
  if (config.model == UpdateModel::kUpdateOnAccess &&
      (config.replay != nullptr || config.arrival_spec != "poisson")) {
    throw std::invalid_argument(
        "ExperimentConfig: the update_on_access model owns its own client "
        "arrival processes (--bursty); --arrival-spec and replay apply to "
        "the board models only");
  }
  if (config.fault.any() && config.model == UpdateModel::kUpdateOnAccess) {
    throw std::invalid_argument(
        "ExperimentConfig: fault injection is not supported for the "
        "update_on_access model (per-client snapshot pulls have no refresh "
        "stream to degrade)");
  }
  if (config.board_repr == policy::BoardRepr::kBucketed) {
    if (config.fault.any()) {
      throw std::invalid_argument(
          "ExperimentConfig: board_repr=bucketed is incompatible with fault "
          "injection (per-server liveness reshaping needs the vector path)");
    }
    if (config.model == UpdateModel::kUpdateOnAccess) {
      throw std::invalid_argument(
          "ExperimentConfig: board_repr=bucketed is not supported for the "
          "update_on_access model (per-client snapshots have no shared "
          "board to bucket)");
    }
  }
}

TrialResult run_update_on_access_trial(const ExperimentConfig& config,
                                       std::uint64_t seed) {
  sim::Rng rng(seed);
  queueing::Cluster cluster(config.num_servers, 0.0);
  const auto policy = policy::make_policy(config.policy);
  const auto job_size = workload::make_job_size(config.job_size);
  const double arrival_rate = config.total_rate();

  // Client population sized so the mean per-client gap is the target T; the
  // gap is then chosen so the aggregate rate is exactly lambda * n despite
  // the rounding of the client count.
  const int clients = std::max(
      1, static_cast<int>(std::llround(arrival_rate * config.update_interval)));
  const double per_client_gap = static_cast<double>(clients) / arrival_rate;

  workload::ArrivalProcessPtr gaps;
  if (config.bursty) {
    gaps = std::make_unique<workload::BurstyProcess>(
        per_client_gap, config.burst_mean_length,
        config.burst_within_gap_fraction * per_client_gap);
  } else {
    gaps = std::make_unique<workload::PoissonProcess>(1.0 / per_client_gap);
  }

  // Extend the run so every client launches at least min_jobs_per_client
  // jobs, scaling the warmup share proportionally (paper Section 5.3).
  std::uint64_t num_jobs = config.num_jobs;
  std::uint64_t warmup = config.warmup_jobs;
  if (config.min_jobs_per_client > 0) {
    const std::uint64_t needed =
        config.min_jobs_per_client * static_cast<std::uint64_t>(clients);
    if (needed > num_jobs) {
      warmup = needed * warmup / num_jobs;
      num_jobs = needed;
    }
  }

  queueing::ResponseMetrics metrics(warmup, config.keep_response_samples);
  UpdateOnAccessEngine engine(cluster, *policy, *gaps, *job_size,
                              config.believed_total_rate(), clients, rng);
  engine.set_trace_sink(config.trace_sink);
  double t = 0.0;
  for (std::uint64_t job = 0; job < num_jobs; ++job) {
    t = engine.step(metrics);
  }
  TrialResult result{.mean_response = metrics.mean_response(),
                     .measured_jobs = metrics.measured_jobs(),
                     .total_jobs = metrics.total_jobs(),
                     .sim_end_time = t};
  fill_percentiles(metrics, result);
  return result;
}

}  // namespace

TrialResult run_trial(const ExperimentConfig& config, std::uint64_t seed) {
  validate(config);
  if (config.model == UpdateModel::kUpdateOnAccess) {
    return run_update_on_access_trial(config, seed);
  }
  return run_multi_dispatcher_trial(config, seed);
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  validate(config);
  const auto trials = static_cast<std::size_t>(config.trials);
  std::vector<TrialResult> outcomes(trials);

  // Each trial writes into its pre-sized slot; the workers' completion order
  // never reaches the aggregation below, so parallel runs are bit-identical
  // to serial ones.
  const auto one_trial = [&](std::size_t trial) {
    const std::uint64_t seed =
        sim::trial_seed(config.base_seed, static_cast<int>(trial));
    if (config.trace_sink_for_trial) {
      // Traced parallel runs: each trial gets its own sink object, so sinks
      // need no synchronization.
      ExperimentConfig traced = config;
      traced.trace_sink = config.trace_sink_for_trial(static_cast<int>(trial));
      outcomes[trial] = run_trial(traced, seed);
    } else {
      outcomes[trial] = run_trial(config, seed);
    }
  };

  const int jobs = std::min(runtime::resolve_jobs(config.jobs),
                            static_cast<int>(trials));
  if (jobs > 1 && !runtime::ThreadPool::on_worker_thread()) {
    runtime::ThreadPool pool(jobs);
    runtime::parallel_for_each(pool, trials, one_trial);
  } else {
    for (std::size_t trial = 0; trial < trials; ++trial) one_trial(trial);
  }

  ExperimentResult result;
  result.trial_means.reserve(trials);
  for (const TrialResult& outcome : outcomes) {
    result.across_trials.add(outcome.mean_response);
    result.trial_means.push_back(outcome.mean_response);
    result.faults.merge(outcome.faults);
    result.trace_wraps = std::max(result.trace_wraps, outcome.trace_wraps);
  }
  return result;
}

}  // namespace stale::driver
