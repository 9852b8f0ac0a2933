#include "core/interpreter.h"

#include <stdexcept>

namespace stale::core {

RateSource RateSource::told(double lambda_total) {
  RateSource source;
  source.fixed = lambda_total;
  return source;
}

RateSource RateSource::conservative_max(double max_throughput) {
  RateSource source;
  source.estimator =
      std::make_unique<ConservativeRateEstimator>(max_throughput);
  return source;
}

RateSource RateSource::ewma(double time_constant, double initial_rate) {
  RateSource source;
  source.estimator =
      std::make_unique<EwmaRateEstimator>(time_constant, initial_rate);
  return source;
}

RateSource RateSource::windowed(double window, double initial_rate) {
  RateSource source;
  source.estimator =
      std::make_unique<WindowedRateEstimator>(window, initial_rate);
  return source;
}

LoadInterpreter::LoadInterpreter(Options options)
    : options_(std::move(options)) {
  if (options_.num_servers <= 0) {
    throw std::invalid_argument("LoadInterpreter: num_servers must be > 0");
  }
  if (!options_.rate.fixed.has_value() && !options_.rate.estimator) {
    throw std::invalid_argument("LoadInterpreter: no rate source configured");
  }
  if (!options_.server_rates.empty()) {
    if (options_.server_rates.size() !=
        static_cast<std::size_t>(options_.num_servers)) {
      throw std::invalid_argument(
          "LoadInterpreter: server_rates size mismatch");
    }
    if (options_.mode != LiMode::kBasic) {
      throw std::invalid_argument(
          "LoadInterpreter: heterogeneous rates supported in Basic mode only");
    }
  }
  // Until the first report, interpret "no information" as all-equal loads,
  // which yields the uniform distribution in every mode.
  loads_.assign(static_cast<std::size_t>(options_.num_servers), 0.0);
}

void LoadInterpreter::report_loads(std::span<const int> loads, double age) {
  std::vector<double> as_double(loads.begin(), loads.end());
  report_loads(std::span<const double>(as_double), age);
}

void LoadInterpreter::report_loads(std::span<const double> loads, double age) {
  if (loads.size() != static_cast<std::size_t>(options_.num_servers)) {
    throw std::invalid_argument("LoadInterpreter: load vector size mismatch");
  }
  if (age < 0.0) {
    throw std::invalid_argument("LoadInterpreter: negative report age");
  }
  loads_.assign(loads.begin(), loads.end());
  age_ = age;
  board_dirty_ = true;
  // Anchor the report in absolute time if we have a clock from on_arrival.
  report_time_ = last_arrival_time_ >= 0.0 ? last_arrival_time_ - age : -1.0;
  invalidate();
}

void LoadInterpreter::on_arrival(double t) {
  if (options_.rate.estimator) options_.rate.estimator->on_arrival(t);
  if (report_time_ >= 0.0 && t >= report_time_) {
    age_ = t - report_time_;
  } else if (last_arrival_time_ >= 0.0 && t > last_arrival_time_) {
    age_ += t - last_arrival_time_;  // no anchor: age the report relatively
  }
  last_arrival_time_ = t;
  invalidate();
}

double LoadInterpreter::current_rate_estimate() const {
  if (options_.rate.fixed.has_value()) return *options_.rate.fixed;
  return options_.rate.estimator->rate();
}

void LoadInterpreter::recompute() {
  const double expected_arrivals = current_rate_estimate() * age_;
  switch (options_.mode) {
    case LiMode::kBasic:
      if (board_dirty_) {
        if (options_.server_rates.empty()) {
          basic_solver_.set_board(std::span<const double>(loads_));
        } else {
          basic_solver_.set_board(loads_, options_.server_rates);
        }
        board_dirty_ = false;
      }
      basic_solver_.solve(expected_arrivals, probabilities_);
      break;
    case LiMode::kAggressive:
      probabilities_ =
          aggressive_li_stationary_probabilities(loads_, expected_arrivals);
      break;
    case LiMode::kHybrid: {
      // Deficit-proportional while the expected arrivals since the report
      // are not enough to level everyone; uniform afterwards.
      const double first_jobs = hybrid_li_first_interval_jobs(loads_);
      if (expected_arrivals < first_jobs) {
        probabilities_ = hybrid_li_first_interval_probabilities(loads_);
      } else {
        probabilities_.assign(loads_.size(), 1.0 / static_cast<double>(
                                                       loads_.size()));
      }
      break;
    }
  }
  sampler_.rebuild(probabilities_);
  dirty_ = false;
}

const std::vector<double>& LoadInterpreter::probabilities() {
  if (dirty_) recompute();
  return probabilities_;
}

int LoadInterpreter::pick(sim::Rng& rng) {
  if (dirty_) recompute();
  return sampler_.sample(rng);
}

}  // namespace stale::core
