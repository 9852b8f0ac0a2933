#include "driver/experiment.h"

#include <algorithm>
#include <stdexcept>

#include "driver/multi_dispatcher.h"
#include "runtime/thread_pool.h"
#include "sim/rng.h"
#include "workload/arrival_spec.h"

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

// A field the model does not read must keep its default: a flag that
// changes nothing must not pass silently.
void require_read(bool read, const char* field, const ExperimentConfig& config,
                  const char* reader) {
  if (read) return;
  throw std::invalid_argument(std::string("ExperimentConfig: ") + field +
                              " is not read by the " +
                              update_model_name(config.model) +
                              " model (only " + reader + " reads it)");
}

// The first fault-spec key that describes the liveness process or its retry
// path (crash, down, semantics, retries, backoff) set away from its default,
// or null when none is.
const char* liveness_key_set(const fault::FaultSpec& spec) {
  const fault::FaultSpec defaults;
  if (spec.crash_rate != defaults.crash_rate) return "crash";
  if (spec.mean_downtime != defaults.mean_downtime) return "down";
  if (spec.semantics != defaults.semantics) return "semantics";
  if (spec.max_retries != defaults.max_retries) return "retries";
  if (spec.retry_backoff != defaults.retry_backoff) return "backoff";
  return nullptr;
}

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
    if (const char* key = liveness_key_set(config.fault)) {
      throw std::invalid_argument(
          std::string("ExperimentConfig: with churn on, the fault spec may "
                      "not set '") +
          key +
          "' (the churn spec owns the liveness process and its retry "
          "path: use its leave/rejoin, semantics, retries and backoff)");
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
  const bool on_access = config.model == UpdateModel::kUpdateOnAccess;
  if (on_access && config.dispatchers > 1) {
    throw std::invalid_argument(
        "ExperimentConfig: update_on_access needs dispatchers = 1 (the "
        "client population is the dispatcher set)");
  }
  if (config.replay == nullptr) {
    workload::validate_arrival_spec(config.arrival_spec);
  }
  if (on_access &&
      (config.replay != nullptr || config.arrival_spec != "poisson")) {
    throw std::invalid_argument(
        "ExperimentConfig: update_on_access takes no --arrival-spec or "
        "replay (the per-client gap processes are the arrival process)");
  }
  if (on_access && config.fault.update_extra_delay > 0.0) {
    throw std::invalid_argument(
        "ExperimentConfig: update_on_access takes no fault delay= (a late "
        "reply would need a second per-client buffer)");
  }
  const bool continuous = config.model == UpdateModel::kContinuous;
  const bool delay_default =
      config.delay_kind == loadinfo::DelayKind::kConstant;
  require_read(continuous || delay_default, "delay_kind", config,
               "continuous");
  require_read(continuous || !config.know_actual_age, "know_actual_age",
               config, "continuous");
  require_read(on_access || !config.bursty, "bursty", config,
               "update_on_access");
  require_read(on_access || config.min_jobs_per_client == 0,
               "min_jobs_per_client", config, "update_on_access");
}

}  // namespace

TrialResult run_trial(const ExperimentConfig& config, std::uint64_t seed) {
  validate(config);
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
