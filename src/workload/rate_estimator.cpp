#include "workload/rate_estimator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "sim/spec.h"

namespace stale::workload {

void Cema::update(double value, double alpha) {
  exponential = alpha * value + (1.0 - alpha) * exponential;
  decay_factor *= 1.0 - alpha;
  ++updates;
}

void Cema::bulk_update(double value, std::uint64_t repeat, double alpha) {
  if (repeat == 0) return;
  // Repeating x' = a*v + (1-a)*x k times telescopes to
  //   x' = v * (1 - (1-a)^k) + (1-a)^k * x.
  const double keep = std::pow(1.0 - alpha, static_cast<double>(repeat));
  exponential = value * (1.0 - keep) + keep * exponential;
  decay_factor *= keep;
  updates += repeat;
}

double Cema::value() const {
  if (updates == 0) return 0.0;
  const double absorbed = 1.0 - decay_factor;
  // After astronomically many updates decay_factor underflows to 0 and the
  // correction is exactly 1 — the plain EMA.
  if (absorbed <= 0.0) return exponential;
  return exponential / absorbed;
}

CemaRateEstimator::CemaRateEstimator(double alpha, double bucket_width,
                                     double initial_rate)
    : alpha_(alpha), bucket_(bucket_width), initial_rate_(initial_rate) {
  if (!(alpha > 0.0) || !(alpha < 1.0)) {
    throw std::invalid_argument("CemaRateEstimator: alpha must be in (0, 1)");
  }
  if (bucket_width <= 0.0) {
    throw std::invalid_argument(
        "CemaRateEstimator: bucket width must be > 0");
  }
  if (initial_rate <= 0.0) {
    throw std::invalid_argument(
        "CemaRateEstimator: initial rate must be > 0");
  }
}

void CemaRateEstimator::on_arrival(double t) {
  if (!started_) {
    // Buckets are aligned to the first arrival, so the estimator needs no
    // external clock origin.
    started_ = true;
    bucket_start_ = t;
    in_bucket_ = 1;
    return;
  }
  if (t < bucket_start_ + bucket_) {
    ++in_bucket_;
    return;
  }
  // Close the current bucket, fold the empty buckets the gap skipped over in
  // one bulk update, and open the bucket containing t.
  cema_.update(static_cast<double>(in_bucket_) / bucket_, alpha_);
  const auto skipped = static_cast<std::uint64_t>(
      std::floor((t - bucket_start_) / bucket_)) - 1;
  cema_.bulk_update(0.0, skipped, alpha_);
  bucket_start_ += static_cast<double>(skipped + 1) * bucket_;
  in_bucket_ = 1;
}

double CemaRateEstimator::rate() const {
  if (cema_.updates == 0) return initial_rate_;
  return cema_.value();
}

std::string CemaRateEstimator::describe() const {
  return "cema(alpha " + sim::format_number(alpha_) + ", bucket " +
         sim::format_number(bucket_) + ", initial " +
         sim::format_number(initial_rate_) + ")";
}

core::RateEstimatorPtr make_rate_estimator(
    const std::string& spec, const RateEstimatorContext& context) {
  const std::string owner = "rate_estimator '" + spec + "'";
  const auto fail = [&](const std::string& message) {
    throw std::invalid_argument(owner + ": " + message);
  };
  const std::vector<std::string> fields = sim::split_fields(spec, ':');
  const std::string& kind = fields.front();
  const std::size_t params = fields.size() - 1;
  const auto expect = [&](bool ok, const char* grammar) {
    if (!ok) fail(std::string("expected ") + grammar);
  };
  // Field i, or `fallback` when the spec stops before it; must be > 0.
  const auto positive = [&](std::size_t i, const char* name,
                            double fallback) {
    const double value =
        i <= params ? sim::parse_number(fields[i], owner, name) : fallback;
    if (value <= 0.0) fail(std::string(name) + " must be > 0");
    return value;
  };
  const double initial = context.initial_rate;
  const double t = context.update_interval;
  if (kind == "told" || (kind == "fixed" && params == 0)) {
    expect(params == 0, "told");
    if (!context.has_told_rate) {
      fail("there is no configured arrival rate to believe here; name one "
           "with fixed:RATE");
    }
    return nullptr;
  }
  if (kind == "fixed") {
    expect(params == 1, "fixed[:RATE]");
    return std::make_unique<core::ConservativeRateEstimator>(
        positive(1, "RATE", 0.0));
  }
  if (kind == "conservative") {
    expect(params == 0, "conservative");
    if (context.capacity <= 0.0) {
      fail("the service capacity is not known here; name a rate with "
           "fixed:RATE");
    }
    return std::make_unique<core::ConservativeRateEstimator>(context.capacity);
  }
  if (kind == "ewma") {
    expect(params == 1, "ewma:TAU");
    return std::make_unique<core::EwmaRateEstimator>(positive(1, "TAU", 0.0),
                                                     initial);
  }
  if (kind == "windowed") {
    expect(params <= 1, "windowed[:W]");
    return std::make_unique<core::WindowedRateEstimator>(
        positive(1, "W", 4.0 * std::max(t, 0.25)), initial);
  }
  if (kind == "cema") {
    expect(params <= 2, "cema[:ALPHA[:BUCKET]]");
    const double alpha =
        params >= 1 ? sim::parse_number(fields[1], owner, "ALPHA") : 0.1;
    if (!(alpha > 0.0 && alpha < 1.0)) fail("ALPHA must be in (0, 1)");
    return std::make_unique<CemaRateEstimator>(
        alpha, positive(2, "BUCKET", std::max(t, 0.05) / 2.0), initial);
  }
  throw std::invalid_argument(
      "unknown rate_estimator '" + spec +
      "' (expected told | fixed[:RATE] | conservative | ewma:TAU | "
      "windowed[:W] | cema[:ALPHA[:BUCKET]])");
}

}  // namespace stale::workload
