#include "driver/trial_workload.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "workload/arrival_spec.h"
#include "workload/job_size.h"
#include "workload/rate_estimator.h"
#include "workload/replay.h"
#include "workload/trace.h"

namespace stale::driver {

namespace {

// One numeric field of a rate_estimator spec, consumed in full.
double parse_estimator_field(const std::string& spec, const char* field,
                             const std::string& text) {
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size() || !std::isfinite(value)) {
    throw std::invalid_argument("ExperimentConfig: rate_estimator '" + spec +
                                "': bad " + field + " '" + text + "'");
  }
  return value;
}

}  // namespace

TrialWorkload make_trial_workload(const ExperimentConfig& config) {
  TrialWorkload workload;
  if (config.replay != nullptr) {
    workload.arrivals =
        std::make_unique<stale::workload::ReplayProcess>(
            config.replay->arrivals);
    workload.sizes = std::make_unique<stale::workload::TraceSizes>(
        config.replay->arrivals);
    return workload;
  }
  workload.arrivals = stale::workload::make_arrival_process(
      config.arrival_spec, config.total_rate());
  workload.sizes = stale::workload::make_job_size(config.job_size);
  return workload;
}

core::RateEstimatorPtr make_rate_estimator(const ExperimentConfig& config) {
  const std::string& spec = config.rate_estimator;
  // "fixed" is the live dispatcher's name for the same ablation: the policy
  // believes the configured rate forever, however the traffic moves.
  if (spec == "told" || spec == "fixed") return nullptr;
  std::vector<std::string> fields;
  for (std::size_t start = 0;;) {
    const std::size_t colon = spec.find(':', start);
    fields.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  const std::string& kind = fields.front();
  const std::size_t params = fields.size() - 1;
  const auto expect = [&](bool ok, const char* grammar) {
    if (!ok) {
      throw std::invalid_argument("ExperimentConfig: rate_estimator '" +
                                  spec + "': expected " + grammar);
    }
  };
  const auto field = [&](std::size_t i, const char* name) {
    return parse_estimator_field(spec, name, fields[i]);
  };
  const double max_throughput = static_cast<double>(config.num_servers);
  if (kind == "conservative") {
    expect(params == 0, "conservative");
    return std::make_unique<core::ConservativeRateEstimator>(max_throughput);
  }
  if (kind == "cema") {
    expect(params <= 2, "cema[:ALPHA[:BUCKET]]");
    const double alpha = params >= 1 ? field(1, "ALPHA") : 0.1;
    const double bucket =
        params >= 2 ? field(2, "BUCKET") : config.update_interval / 2.0;
    return std::make_unique<workload::CemaRateEstimator>(alpha, bucket,
                                                         max_throughput);
  }
  if (kind == "ewma") {
    expect(params == 1, "ewma:TAU");
    return std::make_unique<core::EwmaRateEstimator>(field(1, "TAU"),
                                                     max_throughput);
  }
  if (kind == "windowed") {
    expect(params == 1, "windowed:W");
    return std::make_unique<core::WindowedRateEstimator>(field(1, "W"),
                                                         max_throughput);
  }
  throw std::invalid_argument("ExperimentConfig: unknown rate_estimator '" +
                              spec + "'");
}

void fill_percentiles(const queueing::ResponseMetrics& metrics,
                      TrialResult& result) {
  if (metrics.samples().empty()) return;
  std::vector<double> sorted = metrics.samples();
  std::sort(sorted.begin(), sorted.end());
  result.p50_response = sim::percentile_sorted(sorted, 0.50);
  result.p90_response = sim::percentile_sorted(sorted, 0.90);
  result.p95_response = sim::percentile_sorted(sorted, 0.95);
  result.p99_response = sim::percentile_sorted(sorted, 0.99);
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
