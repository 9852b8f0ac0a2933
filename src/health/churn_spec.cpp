#include "health/churn_spec.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "sim/spec.h"

namespace stale::health {

HealthConfig ChurnSpec::resolved_health(double update_interval) const {
  HealthConfig config;
  config.suspect_timeout = suspect_in_intervals
                               ? suspect_value * update_interval
                               : suspect_value;
  config.evict_timeout =
      evict_in_intervals ? evict_value * update_interval : evict_value;
  config.probation_reports = probation_reports;
  config.probe_backoff = probe_backoff;
  config.probe_backoff_max = probe_backoff_max;
  config.coverage_threshold = coverage_threshold;
  config.fallback_policy = fallback_policy;
  config.validate();
  return config;
}

ChurnSpec ChurnSpec::from_crash_faults(const fault::FaultSpec& faults) {
  ChurnSpec spec;
  spec.leave_rate = faults.crash_rate;
  spec.rejoin_delay = faults.mean_downtime;
  spec.semantics = faults.semantics;
  spec.max_retries = faults.max_retries;
  spec.retry_backoff = faults.retry_backoff;
  return spec;
}

void ChurnSpec::validate() const {
  const auto require = [](bool ok, const char* message) {
    if (!ok) throw std::invalid_argument(std::string("ChurnSpec: ") + message);
  };
  // Each bound also rejects NaN: every comparison with NaN is false.
  const auto at_least = [](double value, double lo) {
    return value >= lo && std::isfinite(value);
  };
  const auto positive = [](double value) {
    return value > 0.0 && std::isfinite(value);
  };
  require(at_least(restart_every, 0.0), "'restart' must be >= 0");
  require(!has_restarts() || positive(restart_down),
          "'restartdown' must be > 0 when restarts are on");
  require(at_least(leave_rate, 0.0), "'leave' must be >= 0");
  require(!has_leaves() || positive(rejoin_delay),
          "'rejoin' must be > 0 when leaves are on");
  require(slow >= 0, "'slow' must be >= 0");
  require(!has_slow_nodes() || (positive(slow_factor) && slow_factor <= 1.0),
          "'slowfactor' must be in (0, 1] when slow nodes are on");
  require(positive(suspect_value), "'suspect' must be > 0");
  require(positive(evict_value), "'evict' must be > 0");
  require(suspect_in_intervals != evict_in_intervals ||
              evict_value > suspect_value,
          "'evict' must exceed 'suspect'");
  require(probation_reports >= 1, "'probation' must be >= 1");
  require(positive(probe_backoff), "'probe' must be > 0");
  require(at_least(probe_backoff_max, probe_backoff),
          "'probemax' must be >= 'probe'");
  require(at_least(coverage_threshold, 0.0) && coverage_threshold <= 1.0,
          "'coverage' must be a fraction in [0, 1]");
  require(!fallback_policy.empty(), "'fallback' needs a policy");
  require(max_retries >= 0, "'retries' must be >= 0");
  require(at_least(retry_backoff, 0.0), "'backoff' must be >= 0");
}

ChurnSpec ChurnSpec::parse(const std::string& text) {
  constexpr std::string_view kOwner = "ChurnSpec";
  ChurnSpec spec;
  for (const auto& item : sim::parse_key_values(text, kOwner)) {
    const std::string& key = item.first;
    const std::string& value = item.second;
    const auto number = [&] { return sim::parse_number(value, kOwner, key); };
    const auto integer = [&] {
      return sim::parse_integer<int>(value, kOwner, key);
    };
    const auto span = [&](double& out_value, bool& out_in_intervals) {
      const sim::Span parsed = sim::parse_span(value, kOwner, key);
      out_value = parsed.value;
      out_in_intervals = parsed.in_intervals;
    };
    if (key == "restart") {
      spec.restart_every = number();
    } else if (key == "restartdown") {
      spec.restart_down = number();
    } else if (key == "leave") {
      spec.leave_rate = number();
    } else if (key == "rejoin") {
      spec.rejoin_delay = number();
    } else if (key == "slow") {
      spec.slow = integer();
    } else if (key == "slowfactor") {
      spec.slow_factor = number();
    } else if (key == "semantics") {
      if (value == "lost") {
        spec.semantics = fault::CrashSemantics::kLostWork;
      } else if (value == "requeue") {
        spec.semantics = fault::CrashSemantics::kRequeue;
      } else {
        throw std::invalid_argument(
            "ChurnSpec: 'semantics' must be lost or requeue, got '" + value +
            "'");
      }
    } else if (key == "suspect") {
      span(spec.suspect_value, spec.suspect_in_intervals);
    } else if (key == "evict") {
      span(spec.evict_value, spec.evict_in_intervals);
    } else if (key == "probation") {
      spec.probation_reports = integer();
    } else if (key == "probe") {
      spec.probe_backoff = number();
    } else if (key == "probemax") {
      spec.probe_backoff_max = number();
    } else if (key == "coverage") {
      spec.coverage_threshold = number();
    } else if (key == "fallback") {
      if (value.empty()) {
        throw std::invalid_argument("ChurnSpec: 'fallback' needs a policy");
      }
      spec.fallback_policy = value;
    } else if (key == "retries") {
      spec.max_retries = integer();
    } else if (key == "backoff") {
      spec.retry_backoff = number();
    } else {
      throw std::invalid_argument("ChurnSpec: unknown key '" + key + "'");
    }
  }
  spec.validate();
  return spec;
}

std::string ChurnSpec::to_string() const {
  std::ostringstream out;
  const char* sep = "";
  const auto emit = [&](const std::string& piece) {
    out << sep << piece;
    sep = ",";
  };
  const auto num = sim::format_number;
  const auto span = sim::format_span;
  if (has_restarts()) {
    emit("restart=" + num(restart_every));
    emit("restartdown=" + num(restart_down));
  }
  if (has_leaves()) {
    emit("leave=" + num(leave_rate));
    emit("rejoin=" + num(rejoin_delay));
  }
  if (has_slow_nodes()) {
    emit("slow=" + std::to_string(slow));
    emit("slowfactor=" + num(slow_factor));
  }
  if (!any()) return out.str();
  emit(semantics == fault::CrashSemantics::kRequeue ? "semantics=requeue"
                                                    : "semantics=lost");
  emit("suspect=" + span(suspect_value, suspect_in_intervals));
  emit("evict=" + span(evict_value, evict_in_intervals));
  if (probation_reports != 2) {
    emit("probation=" + std::to_string(probation_reports));
  }
  if (probe_backoff != 0.5) emit("probe=" + num(probe_backoff));
  if (probe_backoff_max != 8.0) emit("probemax=" + num(probe_backoff_max));
  if (coverage_threshold > 0.0) {
    emit("coverage=" + num(coverage_threshold));
    emit("fallback=" + fallback_policy);
  }
  if (max_retries != 3 || retry_backoff != 0.1) {
    emit("retries=" + std::to_string(max_retries));
    emit("backoff=" + num(retry_backoff));
  }
  return out.str();
}

}  // namespace stale::health
