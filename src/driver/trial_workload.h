// Per-trial workload construction: resolves an ExperimentConfig's
// arrival_spec / job_size / replay fields into the cursor-holding process
// objects one trial consumes, and its rate_estimator spec into the online
// estimator. Each trial builds its own TrialWorkload and estimator (they keep
// internal state — cursors, MMPP phase, thinning clocks, rate buckets — so
// sharing one across parallel trials would race and leak position). Also
// home of the result helper both trial engines share.
#pragma once

#include <string>

#include "core/rate_estimator.h"
#include "driver/experiment.h"
#include "queueing/metrics.h"
#include "sim/distributions.h"
#include "workload/arrival_process.h"

namespace stale::driver {

struct TrialWorkload {
  workload::ArrivalProcessPtr arrivals;
  sim::DistributionPtr sizes;

  // Times the finite trace looped (0 for synthetic workloads).
  std::uint64_t wraps() const { return arrivals->wraps(); }
};

// Builds the trial's arrival process and job-size distribution. Replay
// configs get a ReplayProcess + TraceSizes pair over the recorded trace;
// everything else routes through make_arrival_process(arrival_spec,
// total_rate()) and make_job_size(job_size). The default spec ("poisson")
// reproduces the historical inline exponential draw bit for bit.
TrialWorkload make_trial_workload(const ExperimentConfig& config);

// Builds the online rate estimator named by config.rate_estimator, or null
// for "told"/"fixed" (the policy then believes believed_total_rate()).
// Grammar: told | fixed | conservative | cema[:ALPHA[:BUCKET]] | ewma:TAU |
// windowed:W. cema defaults to alpha 0.1 and bucket T/2 (two samples per
// staleness phase, so lambda-hat re-converges within a few phases of a rate
// shift); every estimator starts from the conservative max throughput n.
// Each number must parse in full and be finite; a bad one throws
// std::invalid_argument naming its field.
core::RateEstimatorPtr make_rate_estimator(const ExperimentConfig& config);

// Fills the percentile fields of `result` from retained samples, if any.
void fill_percentiles(const queueing::ResponseMetrics& metrics,
                      TrialResult& result);

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
