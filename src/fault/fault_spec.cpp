#include "fault/fault_spec.h"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "sim/spec.h"

namespace stale::fault {

double FaultSpec::resolved_cutoff(double update_interval) const {
  if (cutoff_value <= 0.0) return std::numeric_limits<double>::infinity();
  return cutoff_in_intervals ? cutoff_value * update_interval : cutoff_value;
}

void FaultSpec::validate() const {
  const auto require = [](bool ok, const char* message) {
    if (!ok) throw std::invalid_argument(std::string("FaultSpec: ") + message);
  };
  // Each bound also rejects NaN: every comparison with NaN is false.
  const auto at_least_zero = [](double value) {
    return value >= 0.0 && std::isfinite(value);
  };
  const auto probability = [](double p) { return p >= 0.0 && p <= 1.0; };
  require(at_least_zero(crash_rate), "'crash' must be >= 0");
  require(!has_crashes() ||
              (mean_downtime > 0.0 && std::isfinite(mean_downtime)),
          "'down' (mean downtime) must be > 0 when crashes are on");
  require(probability(update_loss),
          "'loss' must be a probability in [0, 1]");
  require(probability(estimator_dropout),
          "'estdrop' must be a probability in [0, 1]");
  require(at_least_zero(update_extra_delay), "'delay' must be >= 0");
  require(at_least_zero(cutoff_value), "'cutoff' must be >= 0");
  require(max_retries >= 0, "'retries' must be >= 0");
  require(at_least_zero(retry_backoff), "'backoff' must be >= 0");
}

FaultSpec FaultSpec::parse(const std::string& text) {
  constexpr std::string_view kOwner = "FaultSpec";
  FaultSpec spec;
  for (const auto& item : sim::parse_key_values(text, kOwner)) {
    const std::string& key = item.first;
    const std::string& value = item.second;
    const auto number = [&] { return sim::parse_number(value, kOwner, key); };
    if (key == "crash") {
      spec.crash_rate = number();
    } else if (key == "down") {
      spec.mean_downtime = number();
    } else if (key == "semantics") {
      if (value == "lost") {
        spec.semantics = CrashSemantics::kLostWork;
      } else if (value == "requeue") {
        spec.semantics = CrashSemantics::kRequeue;
      } else {
        throw std::invalid_argument(
            "FaultSpec: 'semantics' must be lost or requeue, got '" + value +
            "'");
      }
    } else if (key == "loss") {
      spec.update_loss = number();
    } else if (key == "delay") {
      spec.update_extra_delay = number();
    } else if (key == "estdrop") {
      spec.estimator_dropout = number();
    } else if (key == "cutoff") {
      const sim::Span cutoff = sim::parse_span(value, kOwner, key);
      spec.cutoff_value = cutoff.value;
      spec.cutoff_in_intervals = cutoff.in_intervals;
    } else if (key == "fallback") {
      if (value.empty()) {
        throw std::invalid_argument("FaultSpec: 'fallback' needs a policy");
      }
      spec.fallback_policy = value;
    } else if (key == "retries") {
      spec.max_retries = sim::parse_integer<int>(value, kOwner, key);
    } else if (key == "backoff") {
      spec.retry_backoff = number();
    } else {
      throw std::invalid_argument("FaultSpec: unknown key '" + key + "'");
    }
  }
  spec.validate();
  return spec;
}

std::string FaultSpec::to_string() const {
  std::ostringstream out;
  const char* sep = "";
  const auto emit = [&](const std::string& piece) {
    out << sep << piece;
    sep = ",";
  };
  const auto num = sim::format_number;
  if (crash_rate > 0.0) {
    emit("crash=" + num(crash_rate));
    emit("down=" + num(mean_downtime));
    emit(semantics == CrashSemantics::kRequeue ? "semantics=requeue"
                                               : "semantics=lost");
  }
  if (update_loss > 0.0) emit("loss=" + num(update_loss));
  if (update_extra_delay > 0.0) emit("delay=" + num(update_extra_delay));
  if (estimator_dropout > 0.0) emit("estdrop=" + num(estimator_dropout));
  if (cutoff_value > 0.0) {
    emit("cutoff=" + sim::format_span(cutoff_value, cutoff_in_intervals));
    emit("fallback=" + fallback_policy);
  }
  if (any() && (max_retries != 3 || retry_backoff != 0.1)) {
    emit("retries=" + std::to_string(max_retries));
    emit("backoff=" + num(retry_backoff));
  }
  return out.str();
}

}  // namespace stale::fault
