#include "driver/multi_dispatcher.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "check/audit.h"
#include "check/contracts.h"
#include "dispatch/jiq.h"
#include "fault/fault_injector.h"
#include "fault/hardened_policy.h"
#include "health/churn_injector.h"
#include "health/membership.h"
#include "policy/policy_factory.h"
#include "queueing/cluster.h"
#include "queueing/load_stats.h"
#include "queueing/metrics.h"
#include "driver/trial_workload.h"
#include "sim/rng.h"

namespace stale::driver {

namespace {

// The ground truth of an injected run: at most one of a fault injector
// (crash/recovery, refresh loss and delay, estimator dropout) or a churn
// injector (rolling restarts, leave/rejoin), behind the calls they share.
struct GroundTruth {
  std::optional<fault::FaultInjector> fault;
  std::optional<health::ChurnInjector> churn;

  double next_transition_time() const {
    if (fault) return fault->next_transition_time();
    if (churn) return churn->next_transition_time();
    return std::numeric_limits<double>::infinity();
  }
  void advance_to(queueing::Cluster& cluster, double t,
                  const fault::FaultInjector::RequeueFn& requeue) {
    if (fault) fault->advance_to(cluster, t, requeue);
    if (churn) churn->advance_to(cluster, t, requeue);
  }
  std::span<const std::uint8_t> up() const {
    return fault ? fault->alive() : churn->up();
  }
  int up_count() const {
    return fault ? fault->alive_count() : churn->up_count();
  }
  fault::FaultStats& stats() { return fault ? fault->stats() : churn->stats(); }
};

}  // namespace

// One trial of the board-model engine: D dispatchers over one cluster, D = 1
// being the paper's single dispatcher. The draw discipline:
//   * one rng.split() per dispatcher for individual-board offsets, consumed
//     inside DispatcherSet whichever model is active;
//   * per-dispatcher policy streams split off only when D > 1 (at D = 1 the
//     policy, the continuous view and the retry re-picks draw from the trial
//     stream);
//   * one token stream split off only for JIQ;
//   * the injector's private streams (four for faults, one for churn) split
//     off only when faults or churn are on;
//   * the dispatcher-assignment draw happens only when D > 1.
// Arrival gaps, job sizes and requeue targets draw from the trial stream.
// Trials never share streams, so every run is bit-identical under any
// --jobs N.
TrialResult run_multi_dispatcher_trial(const ExperimentConfig& config,
                                       std::uint64_t seed) {
  const int D = config.dispatchers;
  const auto n = static_cast<std::size_t>(config.num_servers);
  const bool jiq = dispatch::is_jiq_spec(config.policy);
  const bool churn = config.churn.any();
  const bool faults = config.fault.any();
  const bool injected = churn || faults;
  const bool continuous = config.model == UpdateModel::kContinuous;
  const bool bucketed = config.resolved_bucketed();
  // Injected runs record responses at completion (a crash invalidates the
  // departure computed at dispatch); JIQ needs completions to detect idling.
  const bool tracking = jiq || injected;
  const health::ChurnSpec& cspec = config.churn;
  const int max_retries =
      churn ? cspec.max_retries : config.fault.max_retries;
  const double retry_backoff =
      churn ? cspec.retry_backoff : config.fault.retry_backoff;

  sim::Rng rng(seed);

  // Churn runs carry the spec's permanently slow nodes; other runs use the
  // homogeneous cluster. The continuous model reads past loads, so its
  // cluster keeps a history window, widened so fault-stretched delays still
  // resolve exactly (the 40-mean-delays quantile of history_window_for).
  std::vector<double> rates(n, 1.0);
  if (churn) {
    const int slow = std::min(cspec.slow, config.num_servers);
    for (int s = config.num_servers - slow; s < config.num_servers; ++s) {
      rates[static_cast<std::size_t>(s)] = cspec.slow_factor;
    }
  }
  const double extra_allowance =
      continuous ? 40.0 * config.fault.update_extra_delay : 0.0;
  const double history_window =
      continuous ? loadinfo::ContinuousView::history_window_for(
                       config.delay_kind, config.update_interval) +
                       extra_allowance
                 : 0.0;
  queueing::Cluster cluster(std::move(rates), history_window);
  if (tracking) cluster.enable_job_tracking();
  queueing::ResponseMetrics metrics(config.warmup_jobs,
                                    config.keep_response_samples);

  const dispatch::JiqSpec jiq_spec =
      jiq ? dispatch::parse_jiq_spec(config.policy) : dispatch::JiqSpec{};
  std::optional<dispatch::TokenDirectory> directory;
  if (jiq) directory.emplace(config.num_servers, D, config.jiq_token_budget);

  // One policy instance per dispatcher: JIQ policies are per-dispatcher
  // views of the shared token directory; LI policies each keep their own
  // cached probability vectors keyed on their own board's version.
  std::vector<policy::PolicyPtr> policies;
  std::vector<policy::PolicyPtr> fallbacks;  // churn degraded mode, per d
  policies.reserve(static_cast<std::size_t>(D));
  for (int d = 0; d < D; ++d) {
    if (jiq) {
      policies.push_back(
          std::make_unique<dispatch::JiqPolicy>(&*directory, d, jiq_spec));
    } else {
      policies.push_back(policy::make_policy(config.policy));
    }
    if (churn) fallbacks.push_back(policy::make_policy(cspec.fallback_policy));
  }

  TrialWorkload trial_workload = make_trial_workload(config);
  const auto estimator = make_rate_estimator(config);
  const double believed_rate = config.believed_total_rate();

  dispatch::DispatcherSet boards(D, config.num_servers, config.update_interval,
                                 config.model == UpdateModel::kIndividual,
                                 rng);
  if (continuous) {
    boards.enable_continuous_views(config.delay_kind, config.know_actual_age,
                                   extra_allowance);
  }
  dispatch::ArrivalSplitter splitter(D, config.dispatcher_split);
  if (bucketed) boards.enable_level_index();

  obs::TraceSink* const trace = config.trace_sink;
  cluster.set_trace_sink(trace);
  boards.set_trace_sink(trace);

  // Per-dispatcher policy streams (D > 1 only; see the draw discipline
  // above). The vector is pre-split in dispatcher order so the streams are
  // a pure function of (seed, d).
  std::vector<sim::Rng> policy_rngs;
  if (D > 1) {
    policy_rngs.reserve(static_cast<std::size_t>(D));
    for (int d = 0; d < D; ++d) policy_rngs.push_back(rng.split());
  }
  sim::Rng token_rng;
  if (jiq) token_rng = rng.split();

  // The injectors split their streams off `rng` at construction, so they
  // exist only when their spec is on — a plain run must not consume them.
  GroundTruth truth;
  if (faults) truth.fault.emplace(config.fault, config.num_servers, rng);
  if (churn) truth.churn.emplace(cspec, config.num_servers, rng);
  fault::FaultStats no_injection_stats;
  fault::FaultStats& stats = injected ? truth.stats() : no_injection_stats;
  // Faults hand every dispatcher the ground-truth liveness mask and degrade
  // the board through the injector's refresh faults; the staleness cutoff
  // wraps each dispatcher's policy.
  loadinfo::RefreshFaults* const refresh_faults =
      faults ? &*truth.fault : nullptr;
  if (faults) {
    for (policy::PolicyPtr& policy : policies) {
      policy = fault::harden_policy(std::move(policy), config.fault,
                                    config.update_interval, &stats);
    }
  }

  // Churn machinery: one earned Membership view PER dispatcher — each
  // dispatcher quarantines on its own board's report recency, so their
  // candidate sets can disagree (and their level indexes retire different
  // servers).
  std::vector<health::Membership> memberships;
  std::vector<std::uint64_t> last_versions;
  std::vector<std::uint64_t> reconciled_at;
  if (churn) {
    memberships.reserve(static_cast<std::size_t>(D));
    last_versions.assign(static_cast<std::size_t>(D), 0);
    reconciled_at.assign(static_cast<std::size_t>(D), 0);
    for (int d = 0; d < D; ++d) {
      memberships.emplace_back(config.num_servers,
                               cspec.resolved_health(config.update_interval),
                               0.0, trace);
      last_versions[static_cast<std::size_t>(d)] = boards.version(d);
    }
  }

  // JIQ: an empty cluster starts with every server idle, so every server
  // queues its initial token (in server order — the live system's HELLO
  // handshake does the same).
  if (jiq) {
    for (int s = 0; s < config.num_servers; ++s) {
      directory->offer(s, jiq_spec, token_rng);
    }
  }

  // Retry-backoff penalties by arrival index (tags are arrival indices, so
  // the penalty survives requeues and attaches to the final completion).
  std::vector<double> penalty;
  if (injected) penalty.assign(config.num_jobs, 0.0);
  std::vector<queueing::CompletedJob> done;

  // Requeue targets are uniform over the servers actually up at the crash.
  const fault::FaultInjector::RequeueFn requeue =
      [&](double when, const queueing::DisplacedJob& job) -> bool {
    if (truth.up_count() == 0) return false;
    const int target = policy::pick_uniform_alive(truth.up(), n, rng);
    cluster.assign_tagged(when, target, job.size, job.tag, job.born);
    // The requeued job lands on the target whether or not it was idle; its
    // token (if queued anywhere) no longer means "idle".
    if (jiq) directory->invalidate(target);
    return true;
  };

  // After each batch of publishes, feed dispatcher d's membership what the
  // reports say: every server that was actually up delivered its entry;
  // dead servers' entries went silent. Dead-but-probed servers consume their
  // probe budget here too, on the same deterministic schedule.
  const auto note_reports = [&](int d, double when) {
    health::Membership& membership = memberships[static_cast<std::size_t>(d)];
    const std::span<const std::uint8_t> up = truth.up();
    for (std::size_t i = 0; i < n; ++i) {
      if (up[i] != 0) {
        membership.note_report(static_cast<int>(i), when);
      } else if (membership.probe_due(static_cast<int>(i), when)) {
        membership.note_probe(static_cast<int>(i), when);
      }
    }
  };

  const auto sync_boards_to = [&](double when) {
    boards.sync_all_to(cluster, when, refresh_faults);
    if (!churn) return;
    for (int d = 0; d < D; ++d) {
      const auto i = static_cast<std::size_t>(d);
      if (boards.version(d) != last_versions[i]) {
        last_versions[i] = boards.version(d);
        note_reports(d, when);
      }
    }
  };

  // Retires every token whose server is down or whose HOLDING dispatcher
  // quarantined it — the "tokens never dangle after crash/quarantine" half
  // of conservation (audited below).
  const auto invalidate_dead_tokens = [&] {
    if (!jiq) return;
    for (int s = 0; s < config.num_servers; ++s) {
      const int h = directory->holder(s);
      if (h < 0) continue;
      const bool quarantined =
          churn && memberships[static_cast<std::size_t>(h)]
                           .candidates()[static_cast<std::size_t>(s)] == 0;
      if (!cluster.up(s) || quarantined) directory->invalidate(s);
    }
  };

  // Reconciles dispatcher d's level index with its candidate mask after
  // membership transitions: quarantined servers are retired (their level
  // counts leave the histogram), returners are readmitted at their last
  // known level.
  const auto reconcile_levels = [&](int d, double when) {
    health::Membership& membership = memberships[static_cast<std::size_t>(d)];
    membership.advance(when);
    if (!bucketed ||
        membership.transition_count() ==
            reconciled_at[static_cast<std::size_t>(d)]) {
      return;
    }
    reconciled_at[static_cast<std::size_t>(d)] = membership.transition_count();
    sim::LevelIndex& index = boards.level_index_mut(d);
    const std::span<const std::uint8_t> candidates = membership.candidates();
    for (std::size_t i = 0; i < n; ++i) {
      const bool candidate = candidates[i] != 0;
      if (!candidate && !index.retired(static_cast<int>(i))) {
        index.retire(static_cast<int>(i));
      } else if (candidate && index.retired(static_cast<int>(i))) {
        index.readmit(static_cast<int>(i));
      }
    }
  };

  const auto record_completions = [&] {
    for (const queueing::CompletedJob& c : done) {
      metrics.record_indexed(c.tag, c.response + penalty[c.tag]);
    }
  };

  queueing::LoadImbalanceStats imbalance;
  double t = 0.0;
  for (std::uint64_t job = 0; job < config.num_jobs; ++job) {
    t += trial_workload.arrivals->next_gap(rng);

    if (injected) {
      // Ground-truth transitions and board refreshes interleave in global
      // time order: a board boundary before a crash must measure the
      // pre-crash cluster (at a tie the measurement wins — the last report
      // escapes just before the server dies).
      while (truth.next_transition_time() <= t) {
        const double when = truth.next_transition_time();
        sync_boards_to(when);
        truth.advance_to(cluster, when, requeue);
        invalidate_dead_tokens();
      }
    }
    sync_boards_to(t);
    if (churn) {
      for (int d = 0; d < D; ++d) reconcile_levels(d, t);
      invalidate_dead_tokens();
    }

    // Thin the merged Poisson stream: dispatcher d sees an independent
    // Poisson process at its share of the total rate.
    const int d = D > 1 ? splitter.pick(rng) : 0;
    const auto di = static_cast<std::size_t>(d);
    sim::Rng& policy_rng = D > 1 ? policy_rngs[di] : rng;

    if (tracking) {
      // Retire and drain completions up to t before the dispatch decision:
      // a server that went idle before this arrival must be claimable now.
      cluster.advance_to(t);
      done.clear();
      cluster.drain_completions(done);
      if (injected) record_completions();
      if (jiq) {
        // Idle detection: a drained server whose queue is empty at t went
        // idle at its last departure and queues a token. Offers happen in
        // (departure, server) order so the token stream is deterministic.
        std::sort(done.begin(), done.end(),
                  [](const queueing::CompletedJob& a,
                     const queueing::CompletedJob& b) {
                    if (a.departure != b.departure)
                      return a.departure < b.departure;
                    if (a.server != b.server) return a.server < b.server;
                    return a.tag < b.tag;
                  });
        for (const queueing::CompletedJob& c : done) {
          if (cluster.loads()[static_cast<std::size_t>(c.server)] != 0) {
            continue;
          }
          if (!cluster.up(c.server)) continue;
          if (directory->has_token(c.server)) continue;
          directory->offer(c.server, jiq_spec, token_rng);
        }
        STALE_AUDIT(directory->audit("run_multi_dispatcher_trial: post-offer"));
      }
    }

    policy::DispatchContext context;
    if (estimator) {
      if (!faults || !truth.fault->estimator_drop()) {
        estimator->on_arrival(t);
      } else if (trace) {
        trace->on_refresh_fault(t, obs::FaultTraceEvent::kEstimatorDrop, -1);
      }
      context.lambda_total = estimator->rate();
    } else {
      context.lambda_total = believed_rate;
    }
    if (continuous) {
      cluster.advance_to(t);
      boards.observe(d, cluster, t, policy_rng, refresh_faults);
    }
    context.loads = boards.loads(d);
    context.age = boards.age(d, t);
    if (config.model == UpdateModel::kPeriodic) {
      context.phase_length = config.update_interval;
      context.phase_elapsed = context.age;
    }
    context.info_version = boards.version(d);
    if (bucketed) context.levels = &boards.level_index(d);
    if (faults) {
      // Liveness changes must invalidate cached probability vectors even
      // when the board snapshot itself did not change.
      context.info_version ^= truth.fault->transition_count() << 32;
      context.alive = truth.fault->alive();
      context.sanitize_events = &stats.sanitizer_fixes;
    }
    if (churn) {
      health::Membership& membership = memberships[di];
      // Membership transitions must invalidate cached probability vectors
      // even when the board snapshot itself did not change.
      context.info_version ^= membership.transition_count() << 32;
      context.alive = membership.candidates();
      context.levels_exclude_quarantined = bucketed;
      context.sanitize_events = &stats.sanitizer_fixes;
    }
    context.trace = trace;

    // Churn's degraded mode: below the coverage threshold the board's
    // picture is too thin to act on, so the fallback policy decides; with
    // zero candidates the job goes uniform-over-everyone and takes its
    // chances with the retry path.
    int server;
    if (churn && memberships[di].candidate_count() == 0) {
      server =
          policy::pick_uniform_alive(memberships[di].candidates(), n,
                                     policy_rng);
    } else if (churn && memberships[di].degraded()) {
      server = fallbacks[di]->select(context, policy_rng);
    } else {
      server = policies[di]->select(context, policy_rng);
    }
    if (trace) trace->on_decision(t, server, context.age);

    // The dispatcher discovers a down server on contact: bounded retry with
    // exponential backoff (charged as a response-time penalty), each re-pick
    // uniform over the servers it believes alive. Under churn the failure
    // also feeds dispatcher d's membership.
    double backoff_penalty = 0.0;
    bool dispatched = true;
    if (injected) {
      for (int attempt = 0; !cluster.up(server); ++attempt) {
        if (churn) memberships[di].note_failure(server, t);
        if (attempt >= max_retries) {
          dispatched = false;
          break;
        }
        ++stats.dispatch_retries;
        backoff_penalty += retry_backoff * std::ldexp(1.0, attempt);
        const std::span<const std::uint8_t> believed_up =
            churn ? memberships[di].candidates() : truth.fault->alive();
        server = policy::pick_uniform_alive(believed_up, n, policy_rng);
        STALE_AUDIT(check::audit_candidate_pick(
            server, believed_up, "run_multi_dispatcher_trial: retry pick"));
      }
    }

    // Snapshot the true pre-dispatch queue lengths (arrival epochs give
    // unbiased time averages) once the warmup has passed. The histogram
    // overload computes the same statistics in O(#levels).
    cluster.advance_to(t);
    if (job >= config.warmup_jobs) {
      if (bucketed && !churn) {
        imbalance.observe(cluster.level_histogram());
      } else {
        imbalance.observe(cluster.loads());
      }
    }
    if (dispatched) {
      const double size = trial_workload.sizes->sample(rng);
      if (injected) {
        cluster.assign_tagged(t, server, size, job, t);
        penalty[job] = backoff_penalty;
      } else if (tracking) {
        metrics.record(cluster.assign_tagged(t, server, size, job, t) - t);
      } else {
        metrics.record(cluster.assign(t, server, size) - t);
      }
      // A dispatched job consumes the target's token wherever it is queued:
      // the server is no longer idle, so the token must not dangle.
      if (jiq) directory->invalidate(server);
    } else {
      ++stats.jobs_dropped;
    }
  }

  if (injected) {
    // Freeze the injected processes and let every in-flight job finish so
    // its response is recorded (requeued jobs may complete long after
    // arrival).
    cluster.advance_to(cluster.latest_pending_departure());
    done.clear();
    cluster.drain_completions(done);
    record_completions();
  }
  if (jiq) {
    STALE_AUDIT(directory->audit("run_multi_dispatcher_trial: end of trial"));
  }

  TrialResult result{
      .mean_response = metrics.mean_response(),
      .measured_jobs = metrics.measured_jobs(),
      .total_jobs = metrics.total_jobs(),
      .sim_end_time = t,
      .mean_queue_stddev = imbalance.mean_within_snapshot_stddev(),
      .mean_queue_max = imbalance.mean_snapshot_max(),
      .mean_queue_length = imbalance.mean_queue_length()};
  if (injected) result.faults = stats;
  result.trace_wraps = trial_workload.wraps();
  fill_percentiles(metrics, result);
  return result;
}

}  // namespace stale::driver
