// Experiment configuration and the seeded trial runner that reproduces the
// paper's methodology: simulate N job arrivals into an n-server FIFO cluster
// under a staleness model + dispatch policy, discard the first W jobs as
// warmup, report the mean response time; repeat over independent seeds and
// summarize with 90% confidence intervals (and box stats for the
// heavy-tailed workloads).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dispatch/dispatcher_set.h"
#include "fault/fault_spec.h"
#include "fault/fault_stats.h"
#include "health/churn_spec.h"
#include "loadinfo/delay_distribution.h"
#include "obs/trace_sink.h"
#include "policy/policy.h"
#include "sim/stats.h"
#include "workload/replay.h"

namespace stale::driver {

enum class UpdateModel {
  kPeriodic,        // Section 3.1 bulletin board
  kContinuous,      // Section 3.1 delayed view
  kUpdateOnAccess,  // Section 3.2 per-client snapshots
  kIndividual,      // extension: per-server de-phased refresh
};

std::string update_model_name(UpdateModel model);

struct ExperimentConfig {
  // --- system ---
  int num_servers = 10;
  double lambda = 0.9;  // per-server offered load (fraction of service rate)

  // --- staleness model ---
  UpdateModel model = UpdateModel::kPeriodic;
  double update_interval = 1.0;  // T, in units of mean service time
  // Continuous model only:
  loadinfo::DelayKind delay_kind = loadinfo::DelayKind::kConstant;
  bool know_actual_age = false;  // Figure 7 vs Figure 6
  // Update-on-access only:
  bool bursty = false;                       // Figure 9
  double burst_mean_length = 10.0;           // mean requests per burst
  double burst_within_gap_fraction = 0.01;   // within-burst gap = frac * T
  // Minimum jobs each client must launch; the run is extended if needed
  // (paper: "each client launches at least 1,000 jobs"). 0 disables.
  std::uint64_t min_jobs_per_client = 0;

  // --- algorithm ---
  std::string policy = "basic_li";  // see policy/policy_factory.h

  // Board representation on the dispatch path (policy/policy.h). kAuto picks
  // bucketed for clusters of kBucketedAutoThreshold+ servers when the run is
  // eligible; explicit kBucketed on an ineligible run (fault injection,
  // update-on-access) is rejected by validation. Representation choice never
  // changes per-level dispatch distributions — only the RNG draw sequence
  // (so paired vector/bucketed runs are statistically, not bit-, identical).
  policy::BoardRepr board_repr = policy::BoardRepr::kAuto;

  // --- multi-dispatcher scale-out (src/dispatch/) ---
  // Number of cooperating dispatchers over the one cluster; 1 (the default)
  // is the paper's single dispatcher. With D > 1 each dispatcher gets its
  // own board instance (periodic boards de-phased by d*T/D, individual
  // boards independently offset) or continuous view and its own RNG stream
  // split off the trial stream, and arrivals are thinned across dispatchers.
  // Every board model (periodic/individual/continuous) and both fault
  // injection and churn (each dispatcher earns its own Membership view)
  // work at any D; update_on_access runs a single per-client engine.
  int dispatchers = 1;
  dispatch::DispatcherSplit dispatcher_split =
      dispatch::DispatcherSplit::kUniform;
  // JIQ policies only: per-dispatcher cap on queued idle tokens, so JIQ can
  // be compared against LI at a matched message rate. 0 = unbounded.
  int jiq_token_budget = 0;

  // --- workload ---
  std::string job_size = "exp:1";  // see workload/job_size.h

  // Arrival-process spec (workload/arrival_spec.h): "poisson" (default,
  // bit-identical to the historical inline draw), "mmpp:...", "ramp:...",
  // "flash:...", or "trace:FILE". The base rate is total_rate(), so --lambda
  // still sets the overall scale. Board models only for non-poisson specs.
  std::string arrival_spec = "poisson";

  // Replay of a recorded live run (workload/replay.h), set up by
  // configure_replay(): arrivals and job sizes come from the trace, verbatim.
  // Overrides arrival_spec and job_size when non-null. Shared because trials
  // run on worker threads; the trace itself is immutable (each trial builds
  // its own cursor-holding ReplayProcess/TraceSizes from it).
  std::shared_ptr<const workload::ReplayTrace> replay;

  // --- fault injection (src/fault/) ---
  // Default-constructed spec = no faults; the trial engine builds the fault
  // injector only when fault.any() (a fault-free run draws no fault
  // streams). Works with every board model and any dispatcher count. Not
  // supported for the update_on_access model (there is no refresh stream to
  // degrade), the bucketed representation, or churn; validate() rejects
  // those combinations.
  fault::FaultSpec fault;

  // --- membership churn + health subsystem (src/health/) ---
  // Default-constructed spec = no churn; the trial engine builds the churn
  // injector and the per-dispatcher Membership views only when churn.any().
  // Mutually exclusive with fault injection (the fault path hands the
  // dispatcher ground-truth liveness; the churn path makes it earn a view
  // through the Membership state machine). Periodic and individual boards
  // only: the continuous and update_on_access models have no per-server
  // report stream for the health layer to watch.
  health::ChurnSpec churn;

  // --- arrival-rate knowledge (Figures 12-13) ---
  // The policy is told lambda_total = n * lambda_estimate * error_factor,
  // where lambda_estimate defaults to the true per-server lambda.
  double lambda_error_factor = 1.0;
  double lambda_estimate_per_server = -1.0;  // < 0: use the true lambda
  // Online estimation ablation: "told" (default, uses the fields above),
  // "conservative" (believe n * 1.0, the paper's max-throughput rule),
  // "ewma:TAU" or "windowed:W" (learn the rate from observed arrivals).
  std::string rate_estimator = "told";

  // --- run lengths ---
  std::uint64_t num_jobs = 120'000;
  std::uint64_t warmup_jobs = 30'000;
  int trials = 5;
  std::uint64_t base_seed = 0x5EEDBA5EULL;

  // --- parallelism ---
  // Worker threads used by run_experiment to run trials concurrently.
  // 1 = serial (library default); 0 or negative = auto (STALE_JOBS env, else
  // hardware_concurrency — see runtime/thread_pool.h). Results are
  // bit-identical for every value: each trial derives an independent RNG
  // stream from sim::trial_seed(base_seed, trial) and aggregation happens by
  // trial index, not arrival order.
  int jobs = 1;

  // Retain per-job response times so TrialResult carries tail percentiles
  // (p50/p95/p99). Costs 8 bytes per measured job.
  bool keep_response_samples = false;

  // --- observability (src/obs/) ---
  // Trace sink wired through the whole trial (cluster, board, policy,
  // dispatch decisions). Sinks are pure observers: any run is bit-identical
  // with and without one attached (tested). Not owned; must outlive the run.
  obs::TraceSink* trace_sink = nullptr;
  // Per-trial sink factory for parallel traced runs: trials execute on
  // worker threads concurrently, so they must not share one recorder. When
  // set, it overrides trace_sink; returning nullptr leaves a trial untraced.
  std::function<obs::TraceSink*(int trial)> trace_sink_for_trial;

  // Aggregate arrival rate lambda * n.
  double total_rate() const { return lambda * num_servers; }

  // What the policy believes the aggregate rate is.
  double believed_total_rate() const {
    const double per_server = lambda_estimate_per_server >= 0.0
                                  ? lambda_estimate_per_server
                                  : lambda;
    return per_server * num_servers * lambda_error_factor;
  }

  // Whether this run dispatches through the bucketed (counted) board path.
  // Fault runs and update-on-access never do, regardless of board_repr
  // (validate() rejects an explicit kBucketed request for those). Churn runs
  // may: the health layer retires quarantined servers from the level index,
  // so the counted representation stays faithful to the candidate set.
  bool resolved_bucketed() const {
    if (board_repr == policy::BoardRepr::kVector) return false;
    if (fault.any() || model == UpdateModel::kUpdateOnAccess) return false;
    if (board_repr == policy::BoardRepr::kBucketed) return true;
    return num_servers >= policy::kBucketedAutoThreshold;
  }
};

struct TrialResult {
  double mean_response = 0.0;
  std::uint64_t measured_jobs = 0;
  std::uint64_t total_jobs = 0;
  double sim_end_time = 0.0;
  // Queue-length dispersion at arrival epochs (unbiased by PASTA), sampled
  // after warmup: the herd effect shows up here as an exploding stddev/max
  // long before the mean queue length moves. Collected by the board-model
  // trials (periodic/continuous/individual).
  double mean_queue_stddev = 0.0;
  double mean_queue_max = 0.0;
  double mean_queue_length = 0.0;
  // Response-time percentiles; populated only when
  // ExperimentConfig::keep_response_samples is set.
  double p50_response = 0.0;
  double p90_response = 0.0;
  double p95_response = 0.0;
  double p99_response = 0.0;
  // Times a finite arrival/size trace looped back to its start to keep
  // feeding the trial (trace/replay workloads only; 0 elsewhere). Nonzero
  // means the run consumed more jobs than the recording holds.
  std::uint64_t trace_wraps = 0;
  // Fault/degradation counters (all zero for fault-free runs). The explicit
  // {} gives the member a default member initializer, so designated-init
  // construction sites that omit it stay -Wmissing-field-initializers-clean.
  fault::FaultStats faults{};
};

struct ExperimentResult {
  sim::RunningStats across_trials;  // of per-trial mean response times
  std::vector<double> trial_means;
  fault::FaultStats faults{};  // summed across trials
  std::uint64_t trace_wraps = 0;  // max over trials (see TrialResult)

  double mean() const { return across_trials.mean(); }
  double ci90() const { return across_trials.ci90_half_width(); }
  sim::BoxStats box() const { return sim::BoxStats::from_sample(trial_means); }
};

// Runs one simulation trial with the given seed.
TrialResult run_trial(const ExperimentConfig& config, std::uint64_t seed);

// Runs config.trials independent trials (seeds derived from base_seed).
ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace stale::driver
