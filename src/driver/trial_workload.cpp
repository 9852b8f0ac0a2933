#include "driver/trial_workload.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "workload/arrival_spec.h"
#include "workload/bursty_process.h"
#include "workload/job_size.h"
#include "workload/replay.h"
#include "workload/trace.h"

namespace stale::driver {

namespace {

// Figure 9's bursty clients: bursts of ~10 requests whose within-burst gaps
// are 1% of the client's mean gap between requests.
constexpr double kBurstMeanLength = 10.0;
constexpr double kBurstWithinGapFraction = 0.01;

}  // namespace

TrialWorkload make_trial_workload(const ExperimentConfig& config) {
  TrialWorkload workload;
  workload.jobs = config.num_jobs;
  workload.warmup = config.warmup_jobs;
  if (config.replay != nullptr) {
    workload.arrivals =
        std::make_unique<stale::workload::ReplayProcess>(
            config.replay->arrivals);
    workload.sizes = std::make_unique<stale::workload::TraceSizes>(
        config.replay->arrivals);
    return workload;
  }
  workload.sizes = stale::workload::make_job_size(config.job_size);
  const double rate = config.total_rate();
  if (config.model != UpdateModel::kUpdateOnAccess) {
    workload.arrivals =
        stale::workload::make_arrival_process(config.arrival_spec, rate);
    return workload;
  }
  const int clients = std::max(
      1, static_cast<int>(std::llround(rate * config.update_interval)));
  const double gap = static_cast<double>(clients) / rate;
  stale::workload::ArrivalProcessPtr gaps;
  if (config.bursty) {
    gaps = std::make_unique<stale::workload::BurstyProcess>(
        gap, kBurstMeanLength, kBurstWithinGapFraction * gap);
  } else {
    gaps = std::make_unique<stale::workload::PoissonProcess>(1.0 / gap);
  }
  workload.clients.emplace(clients, std::move(gaps));
  const std::uint64_t needed =
      config.min_jobs_per_client * static_cast<std::uint64_t>(clients);
  if (needed > workload.jobs) {
    workload.warmup = needed * workload.warmup / workload.jobs;
    workload.jobs = needed;
  }
  return workload;
}

workload::RateEstimatorContext rate_estimator_context(
    const ExperimentConfig& config) {
  workload::RateEstimatorContext context;
  context.update_interval = config.update_interval;
  context.initial_rate = static_cast<double>(config.num_servers);
  context.capacity = context.initial_rate;
  context.has_told_rate = true;
  return context;
}

void configure_replay(ExperimentConfig& config, const std::string& dir) {
  auto trace = std::make_shared<stale::workload::ReplayTrace>(
      stale::workload::load_replay_trace(dir));
  if (trace->arrivals.size() < 8) {
    throw std::invalid_argument(
        "configure_replay: trace '" + dir + "' holds only " +
        std::to_string(trace->arrivals.size()) +
        " completed jobs — too short to measure");
  }
  if (trace->manifest.schedule != "periodic") {
    throw std::invalid_argument(
        "configure_replay: only 'periodic' recordings replay (got schedule '" +
        trace->manifest.schedule + "'; the piggyback board has no "
        "standalone report stream to reconstruct)");
  }
  const double rate = trace->empirical_rate();
  if (rate <= 0.0) {
    throw std::invalid_argument(
        "configure_replay: trace '" + dir + "' spans zero time");
  }
  config.num_servers = trace->manifest.backends;
  config.update_interval = trace->manifest.update_period;
  // Live "periodic" reporting is each backend on its own timer — de-phased
  // per-server refresh, which is the simulator's individual model, not the
  // phase-locked bulletin board.
  config.model = UpdateModel::kIndividual;
  config.num_jobs = trace->arrivals.size();
  config.warmup_jobs = config.num_jobs / 4;
  config.trials = 1;
  config.lambda = rate / trace->manifest.backends;
  config.arrival_spec = "poisson";  // ignored once replay is set; keep valid
  config.replay = std::move(trace);
}

}  // namespace stale::driver
