// Per-trial workload construction: resolves an ExperimentConfig's
// arrival_spec / job_size / replay fields into the cursor-holding process
// objects one trial consumes. Each trial builds its own TrialWorkload (it
// keeps internal state — cursors, MMPP phase, thinning clocks, client heap —
// so sharing one across parallel trials would race and leak position).
#pragma once

#include <optional>
#include <string>

#include "driver/experiment.h"
#include "sim/distributions.h"
#include "workload/arrival_process.h"
#include "workload/rate_estimator.h"

namespace stale::driver {

struct TrialWorkload {
  workload::ArrivalProcessPtr arrivals;  // null under update-on-access
  std::optional<workload::ClientArrivals> clients;  // update-on-access only
  sim::DistributionPtr sizes;
  // Jobs and warmup of the trial: the config's, unless min_jobs_per_client
  // extends an update-on-access run (warmup scaled in proportion).
  std::uint64_t jobs = 0;
  std::uint64_t warmup = 0;

  // The arrival after the one at `t`.
  double next_arrival(double t, sim::Rng& rng) {
    return clients ? clients->next(rng) : t + arrivals->next_gap(rng);
  }

  // Times the finite trace looped (0 for synthetic workloads).
  std::uint64_t wraps() const { return arrivals ? arrivals->wraps() : 0; }
};

// Builds the trial's arrival source, job-size distribution and length.
// Replay configs get a ReplayProcess + TraceSizes pair over the recorded
// trace; update-on-access gets max(1, round(total_rate() * T)) clients of
// mean gap clients / total_rate() (paper Section 5.3); everything else routes
// through make_arrival_process(arrival_spec, total_rate()) and
// make_job_size(job_size). The default spec ("poisson") reproduces the
// historical inline exponential draw bit for bit.
TrialWorkload make_trial_workload(const ExperimentConfig& config);

// What the simulator knows when it builds config.rate_estimator through
// workload::make_rate_estimator: T, a told lambda, and the service capacity
// n (servers of rate 1), which is also every estimator's starting rate —
// the paper's conservative rule.
workload::RateEstimatorContext rate_estimator_context(
    const ExperimentConfig& config);

// Points `config` at the recorded trace-v2 directory `dir` and rewrites the
// run-shape fields to match the recording: num_servers and update_interval
// from the manifest, num_jobs = recorded arrivals (so the replay ends exactly
// at the trace, no wrap), warmup = num_jobs / 4 (the live recorder's
// convention), trials = 1 (there is one recording; seeds only perturb
// service-order tie-breaks), lambda = empirical rate / num_servers, and the
// individual board model (live periodic reporting is per-backend timers —
// de-phased, not phase-locked). Throws on an unloadable trace or a
// recording too short to measure.
void configure_replay(ExperimentConfig& config, const std::string& dir);

}  // namespace stale::driver
