// Declarative description of the membership churn injected into one run.
//
// A spec bundles the churn processes (rolling restarts, per-server Poisson
// leave/rejoin, permanently slow nodes) with the health-subsystem knobs the
// dispatcher uses to survive them (suspicion/eviction timeouts, probation,
// probe backoff, degraded-mode coverage threshold, bounded dispatch retry).
// Specs parse from a compact comma-separated string so they fit in one CLI
// flag or sweep cell:
//
//   restart=5,restartdown=0.5,leave=0.01,rejoin=1,slow=2,slowfactor=0.5,
//   semantics=requeue,suspect=2T,evict=4T,probation=2,probe=0.5,probemax=8,
//   coverage=0.5,fallback=random,retries=3,backoff=0.1
//
// All keys are optional; an empty spec means "no churn". `suspect` and
// `evict` accept either an absolute time ("5.0") or a multiple of the update
// interval ("2T"), resolved once T is known via resolved_health().
#pragma once

#include <string>

#include "fault/fault_spec.h"
#include "health/health_config.h"

namespace stale::health {

struct ChurnSpec {
  // Rolling restart: server s is taken down at restart_every * (s + 1) and
  // again every n * restart_every after that, staying down restart_down each
  // time. 0 disables the schedule.
  double restart_every = 0.0;
  double restart_down = 0.5;

  // Per-server Poisson leave process: while up, time-to-leave ~
  // Exp(leave_rate); a departed server rejoins after ~ Exp(rejoin_delay).
  // 0 disables leaves.
  double leave_rate = 0.0;
  double rejoin_delay = 1.0;

  // The last `slow` servers run at slow_factor times the base service rate
  // (permanently degraded nodes, never evicted by the churn schedule).
  int slow = 0;
  double slow_factor = 0.5;

  // What happens to jobs in flight on a departing server.
  fault::CrashSemantics semantics = fault::CrashSemantics::kRequeue;

  // Health state machine knobs ("T" forms are multiples of the update
  // interval; see HealthConfig for semantics).
  double suspect_value = 2.0;
  bool suspect_in_intervals = true;
  double evict_value = 4.0;
  bool evict_in_intervals = true;
  int probation_reports = 2;
  double probe_backoff = 0.5;
  double probe_backoff_max = 8.0;
  double coverage_threshold = 0.0;
  std::string fallback_policy = "random";

  // Bounded retry when dispatch hits a server the dispatcher then discovers
  // is down: up to max_retries re-picks, the k-th retry costing
  // retry_backoff * 2^(k-1) of response-time penalty. A job that exhausts
  // its retries is dropped (counted, never completes).
  int max_retries = 3;
  double retry_backoff = 0.1;

  bool has_restarts() const { return restart_every > 0.0; }
  bool has_leaves() const { return leave_rate > 0.0; }
  bool has_slow_nodes() const { return slow > 0; }
  bool any() const {
    return has_restarts() || has_leaves() || has_slow_nodes();
  }

  // The liveness process a fault spec's crash keys describe: a crash is a
  // Poisson leave (leave = crash, rejoin = down) with the fault spec's
  // semantics, retries and backoff. Nothing else is set, so the spec has
  // no restarts and no slow nodes; a crash-free fault spec gives a
  // transition-free process.
  static ChurnSpec from_crash_faults(const fault::FaultSpec& faults);

  // Absolute-time health configuration for a run with update interval T.
  HealthConfig resolved_health(double update_interval) const;

  // Throws std::invalid_argument on out-of-range fields.
  void validate() const;

  // Parses the comma-separated key=value format above. Unknown keys,
  // duplicate keys, and malformed values throw std::invalid_argument naming
  // the offender.
  static ChurnSpec parse(const std::string& text);

  // Round-trips through parse(); "" for a default (churn-free) spec.
  std::string to_string() const;
};

}  // namespace stale::health
