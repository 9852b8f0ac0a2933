#include "core/rate_estimator.h"

#include <cmath>
#include <stdexcept>

#include "sim/spec.h"

namespace stale::core {

ConservativeRateEstimator::ConservativeRateEstimator(double max_throughput)
    : max_throughput_(max_throughput) {
  if (max_throughput <= 0.0) {
    throw std::invalid_argument("ConservativeRateEstimator: need rate > 0");
  }
}

std::string ConservativeRateEstimator::describe() const {
  return "conservative(" + sim::format_number(max_throughput_) + ")";
}

EwmaRateEstimator::EwmaRateEstimator(double time_constant, double initial_rate)
    : tau_(time_constant), rate_(initial_rate) {
  if (time_constant <= 0.0 || initial_rate <= 0.0) {
    throw std::invalid_argument("EwmaRateEstimator: need tau, rate > 0");
  }
}

void EwmaRateEstimator::on_arrival(double t) {
  if (last_arrival_ < 0.0) {
    last_arrival_ = t;
    return;
  }
  const double gap = t - last_arrival_;
  last_arrival_ = t;
  if (gap <= 0.0) return;  // simultaneous arrivals contribute no new info
  const double weight = 1.0 - std::exp(-gap / tau_);
  rate_ += weight * (1.0 / gap - rate_);
}

std::string EwmaRateEstimator::describe() const {
  return "ewma(tau=" + sim::format_number(tau_) + ")";
}

WindowedRateEstimator::WindowedRateEstimator(double window,
                                             double initial_rate)
    : window_(window), initial_rate_(initial_rate) {
  if (window <= 0.0 || initial_rate <= 0.0) {
    throw std::invalid_argument("WindowedRateEstimator: need window, rate > 0");
  }
}

void WindowedRateEstimator::on_arrival(double t) {
  now_ = t;
  arrivals_.push_back(t);
  while (!arrivals_.empty() && arrivals_.front() < t - window_) {
    arrivals_.pop_front();
  }
}

double WindowedRateEstimator::rate() const {
  if (now_ < window_) return initial_rate_;  // window not yet filled
  return static_cast<double>(arrivals_.size()) / window_;
}

std::string WindowedRateEstimator::describe() const {
  return "windowed(w=" + sim::format_number(window_) + ")";
}

}  // namespace stale::core
