// Tests for the fault-injection layer: spec parsing, the deterministic
// injector, crash semantics at the queueing layer, degraded refreshes in the
// information models, probability-vector sanitization, the staleness-cutoff
// wrapper, and the fault trial path end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/experiment.h"
#include "driver/report.h"
#include "fault/fault_injector.h"
#include "fault/fault_spec.h"
#include "fault/hardened_policy.h"
#include "loadinfo/continuous_view.h"
#include "loadinfo/individual_board.h"
#include "loadinfo/periodic_board.h"
#include "policy/policy_factory.h"
#include "queueing/cluster.h"

namespace stale::fault {
namespace {

// Scripted RefreshFaults: drops the first `drops` refreshes, then delivers
// everything with a fixed extra delay.
class FakeFaults final : public loadinfo::RefreshFaults {
 public:
  explicit FakeFaults(int drops, double delay = 0.0)
      : drops_(drops), delay_(delay) {}

  bool drop_refresh() override { return drops_-- > 0; }
  double refresh_delay() override { return delay_; }

 private:
  int drops_;
  double delay_;
};

// --- FaultSpec ------------------------------------------------------------

TEST(FaultSpecTest, EmptyMeansNoFaults) {
  const FaultSpec spec = FaultSpec::parse("");
  EXPECT_FALSE(spec.any());
  EXPECT_EQ(spec.to_string(), "");
  EXPECT_TRUE(std::isinf(spec.resolved_cutoff(4.0)));
}

TEST(FaultSpecTest, ParsesFullSpec) {
  const FaultSpec spec = FaultSpec::parse(
      "crash=0.01,down=5,semantics=requeue,loss=0.2,delay=0.5,estdrop=0.1,"
      "cutoff=2T,fallback=k_subset:2,retries=4,backoff=0.25");
  EXPECT_DOUBLE_EQ(spec.crash_rate, 0.01);
  EXPECT_DOUBLE_EQ(spec.mean_downtime, 5.0);
  EXPECT_EQ(spec.semantics, CrashSemantics::kRequeue);
  EXPECT_DOUBLE_EQ(spec.update_loss, 0.2);
  EXPECT_DOUBLE_EQ(spec.update_extra_delay, 0.5);
  EXPECT_DOUBLE_EQ(spec.estimator_dropout, 0.1);
  EXPECT_DOUBLE_EQ(spec.cutoff_value, 2.0);
  EXPECT_TRUE(spec.cutoff_in_intervals);
  EXPECT_EQ(spec.fallback_policy, "k_subset:2");
  EXPECT_EQ(spec.max_retries, 4);
  EXPECT_DOUBLE_EQ(spec.retry_backoff, 0.25);
  EXPECT_TRUE(spec.any());
}

TEST(FaultSpecTest, CutoffResolvesAbsoluteAndIntervalForms) {
  EXPECT_DOUBLE_EQ(FaultSpec::parse("cutoff=2T").resolved_cutoff(4.0), 8.0);
  const FaultSpec absolute = FaultSpec::parse("cutoff=5.5");
  EXPECT_FALSE(absolute.cutoff_in_intervals);
  EXPECT_DOUBLE_EQ(absolute.resolved_cutoff(4.0), 5.5);
}

TEST(FaultSpecTest, RejectsMalformedInput) {
  EXPECT_THROW(FaultSpec::parse("bogus=1"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("crash"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("crash=abc"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("loss=1.5"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("loss=-0.1"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("crash=0.1,down=0"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("semantics=maybe"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("retries=-1"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("fallback="), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("delay=-0.5"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("estdrop=2"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("cutoff=-1"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("loss=0.1,=2"), std::invalid_argument);
}

TEST(FaultSpecTest, RejectsDuplicateKeys) {
  // Last-wins duplicates would silently disagree with the experimenter's
  // intent; every duplicate is a typo.
  EXPECT_THROW(FaultSpec::parse("loss=0.1,loss=0"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("crash=0.1,down=2,crash=0.2"),
               std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("cutoff=2T,cutoff=3"), std::invalid_argument);
  EXPECT_THROW(
      FaultSpec::parse("semantics=lost,semantics=requeue,crash=0.1,down=1"),
      std::invalid_argument);
  // Distinct keys still compose.
  EXPECT_NO_THROW(FaultSpec::parse("loss=0.1,delay=0.5,estdrop=0.2"));
}

TEST(FaultSpecTest, RoundTripsThroughToString) {
  const char* kSpec = "crash=0.01,down=5,semantics=requeue,loss=0.2,cutoff=2T";
  const FaultSpec spec = FaultSpec::parse(kSpec);
  const FaultSpec reparsed = FaultSpec::parse(spec.to_string());
  EXPECT_DOUBLE_EQ(reparsed.crash_rate, spec.crash_rate);
  EXPECT_DOUBLE_EQ(reparsed.mean_downtime, spec.mean_downtime);
  EXPECT_EQ(reparsed.semantics, spec.semantics);
  EXPECT_DOUBLE_EQ(reparsed.update_loss, spec.update_loss);
  EXPECT_DOUBLE_EQ(reparsed.cutoff_value, spec.cutoff_value);
  EXPECT_EQ(reparsed.cutoff_in_intervals, spec.cutoff_in_intervals);
}

TEST(FaultSpecTest, RoundTripsEveryFieldFamilyThroughToString) {
  const FaultSpec spec = FaultSpec::parse(
      "crash=0.02,down=3,semantics=lost,loss=0.1,delay=0.25,estdrop=0.05,"
      "cutoff=4,fallback=random,retries=5,backoff=0.2");
  const FaultSpec reparsed = FaultSpec::parse(spec.to_string());
  EXPECT_DOUBLE_EQ(reparsed.crash_rate, spec.crash_rate);
  EXPECT_DOUBLE_EQ(reparsed.mean_downtime, spec.mean_downtime);
  EXPECT_EQ(reparsed.semantics, spec.semantics);
  EXPECT_DOUBLE_EQ(reparsed.update_loss, spec.update_loss);
  EXPECT_DOUBLE_EQ(reparsed.update_extra_delay, spec.update_extra_delay);
  EXPECT_DOUBLE_EQ(reparsed.estimator_dropout, spec.estimator_dropout);
  EXPECT_DOUBLE_EQ(reparsed.cutoff_value, spec.cutoff_value);
  EXPECT_EQ(reparsed.cutoff_in_intervals, spec.cutoff_in_intervals);
  EXPECT_EQ(reparsed.fallback_policy, spec.fallback_policy);
  EXPECT_EQ(reparsed.max_retries, spec.max_retries);
  EXPECT_DOUBLE_EQ(reparsed.retry_backoff, spec.retry_backoff);
}

// --- crash semantics at the queueing layer --------------------------------

TEST(CrashSemanticsTest, CrashDisplacesJobsAndBlocksAssigns) {
  queueing::Cluster cluster(2);
  cluster.enable_job_tracking();
  cluster.assign_tagged(0.0, 0, 10.0, 1, 0.0);
  cluster.assign_tagged(0.5, 0, 10.0, 2, 0.5);

  std::vector<queueing::DisplacedJob> displaced;
  cluster.crash(1.0, 0, displaced);
  ASSERT_EQ(displaced.size(), 2u);
  EXPECT_EQ(displaced[0].tag, 1u);  // FIFO order
  EXPECT_EQ(displaced[1].tag, 2u);
  EXPECT_DOUBLE_EQ(displaced[1].size, 10.0);  // full demand, restart
  EXPECT_DOUBLE_EQ(displaced[1].born, 0.5);
  EXPECT_FALSE(cluster.up(0));
  EXPECT_EQ(cluster.loads()[0], 0);
  EXPECT_THROW(cluster.assign_tagged(1.5, 0, 1.0, 3, 1.5), std::logic_error);

  cluster.recover(2.0, 0);
  EXPECT_TRUE(cluster.up(0));
  cluster.assign_tagged(2.5, 0, 1.0, 3, 2.5);

  // The displaced jobs never complete; the new job does, with its tag.
  cluster.advance_to(100.0);
  std::vector<queueing::CompletedJob> done;
  cluster.drain_completions(done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].tag, 3u);
  EXPECT_DOUBLE_EQ(done[0].response, 1.0);
}

TEST(CrashSemanticsTest, RequeuedJobKeepsItsResponseClock) {
  queueing::Cluster cluster(2);
  cluster.enable_job_tracking();
  cluster.assign_tagged(0.0, 0, 4.0, 7, 0.0);
  std::vector<queueing::DisplacedJob> displaced;
  cluster.crash(1.0, 0, displaced);
  ASSERT_EQ(displaced.size(), 1u);
  // Restart on server 1 at the crash instant with the original born time.
  cluster.assign_tagged(1.0, 1, displaced[0].size, displaced[0].tag,
                        displaced[0].born);
  cluster.advance_to(10.0);
  std::vector<queueing::CompletedJob> done;
  cluster.drain_completions(done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].tag, 7u);
  // Finishes at 1 + 4 = 5; response measured from the original arrival at 0.
  EXPECT_DOUBLE_EQ(done[0].response, 5.0);
}

// --- FaultInjector --------------------------------------------------------

TEST(FaultInjectorTest, NoCrashesMeansNoTransitions) {
  sim::Rng rng(42);
  FaultInjector injector(FaultSpec::parse("loss=0.5"), 4, rng);
  EXPECT_TRUE(std::isinf(injector.next_transition_time()));
  queueing::Cluster cluster(4);
  cluster.enable_job_tracking();
  injector.advance_to(cluster, 1e9, nullptr);
  EXPECT_EQ(injector.stats().crashes, 0u);
  EXPECT_EQ(injector.transition_count(), 0u);
  EXPECT_EQ(injector.alive_count(), 4);
}

TEST(FaultInjectorTest, ScheduleIsSeedReproducible) {
  const FaultSpec spec = FaultSpec::parse("crash=0.05,down=2");
  std::vector<std::uint64_t> counts;
  for (int rep = 0; rep < 2; ++rep) {
    sim::Rng rng(99);
    FaultInjector injector(spec, 6, rng);
    queueing::Cluster cluster(6);
    cluster.enable_job_tracking();
    for (double t = 50.0; t <= 500.0; t += 50.0) {
      injector.advance_to(cluster, t, nullptr);
    }
    counts.push_back(injector.stats().crashes);
    counts.push_back(injector.stats().recoveries);
    counts.push_back(injector.transition_count());
    EXPECT_GT(injector.stats().crashes, 0u);
  }
  EXPECT_EQ(counts[0], counts[3]);
  EXPECT_EQ(counts[1], counts[4]);
  EXPECT_EQ(counts[2], counts[5]);
}

TEST(FaultInjectorTest, AliveMaskTracksClusterState) {
  sim::Rng rng(7);
  FaultInjector injector(FaultSpec::parse("crash=0.1,down=3"), 5, rng);
  queueing::Cluster cluster(5);
  cluster.enable_job_tracking();
  for (double t = 10.0; t <= 300.0; t += 10.0) {
    injector.advance_to(cluster, t, nullptr);
    int alive = 0;
    for (int s = 0; s < 5; ++s) {
      EXPECT_EQ(injector.alive()[static_cast<std::size_t>(s)] != 0,
                cluster.up(s));
      alive += cluster.up(s) ? 1 : 0;
    }
    EXPECT_EQ(injector.alive_count(), alive);
  }
  EXPECT_EQ(injector.stats().crashes,
            injector.stats().recoveries +
                (5u - static_cast<unsigned>(injector.alive_count())));
}

TEST(FaultInjectorTest, LostWorkCountsDisplacedJobs) {
  sim::Rng rng(11);
  FaultInjector injector(FaultSpec::parse("crash=0.5,down=1"), 2, rng);
  queueing::Cluster cluster(2);
  cluster.enable_job_tracking();
  // Keep both servers busy so crashes displace work.
  std::uint64_t tag = 0;
  for (double t = 0.1; t <= 60.0; t += 0.1) {
    injector.advance_to(cluster, t, nullptr);
    const int target = cluster.up(0) ? 0 : (cluster.up(1) ? 1 : -1);
    if (target >= 0) cluster.assign_tagged(t, target, 5.0, tag++, t);
  }
  EXPECT_GT(injector.stats().crashes, 0u);
  EXPECT_GT(injector.stats().jobs_lost, 0u);
  EXPECT_EQ(injector.stats().jobs_requeued, 0u);
}

// --- degraded refreshes in the information models -------------------------

TEST(RefreshFaultTest, PeriodicBoardDropStretchesAge) {
  queueing::Cluster cluster(2);
  loadinfo::PeriodicBoard board(2, 1.0);
  FakeFaults faults(/*drops=*/2);
  // Boundaries at 1 and 2 are dropped; the board still reports the time-0
  // prior and its age keeps growing past T.
  board.sync(cluster, 2.5, &faults);
  EXPECT_DOUBLE_EQ(board.age(2.5), 2.5);
  // The boundary at 3 survives.
  board.sync(cluster, 3.25, &faults);
  EXPECT_DOUBLE_EQ(board.age(3.25), 0.25);
}

TEST(RefreshFaultTest, PeriodicBoardDelayPostponesPublication) {
  queueing::Cluster cluster(2);
  loadinfo::PeriodicBoard board(2, 1.0);
  cluster.assign(0.5, 0, 100.0);
  FakeFaults faults(/*drops=*/0, /*delay=*/0.4);
  // The boundary-1 snapshot (load 1 on server 0) publishes at 1.4, not 1.
  board.sync(cluster, 1.2, &faults);
  EXPECT_EQ(board.loads()[0], 0);  // still the time-0 prior
  board.sync(cluster, 1.5, &faults);
  EXPECT_EQ(board.loads()[0], 1);
  EXPECT_DOUBLE_EQ(board.age(1.5), 0.5);  // age counts from measurement
}

TEST(RefreshFaultTest, NoFaultsMatchesNullInterface) {
  // A zero-fault FakeFaults must leave board behavior identical to passing
  // nullptr — the hook itself costs nothing.
  queueing::Cluster a(3), b(3);
  a.assign(0.2, 1, 50.0);
  b.assign(0.2, 1, 50.0);
  loadinfo::PeriodicBoard board_a(3, 1.0), board_b(3, 1.0);
  FakeFaults faults(0, 0.0);
  for (double t : {0.5, 1.1, 2.9, 7.0}) {
    board_a.sync(a, t, &faults);
    board_b.sync(b, t, nullptr);
    EXPECT_EQ(board_a.loads(), board_b.loads());
    EXPECT_DOUBLE_EQ(board_a.age(t), board_b.age(t));
    EXPECT_EQ(board_a.version(), board_b.version());
  }
}

TEST(RefreshFaultTest, IndividualBoardDropAgesOneEntry) {
  sim::Rng rng(5);
  queueing::Cluster cluster(3);
  loadinfo::IndividualBoard board(3, 1.0, rng);
  FakeFaults faults(/*drops=*/1);  // only the first due heartbeat is lost
  board.sync(cluster, 3.0, &faults);
  // Every entry eventually refreshed; ages stay below 2T for the survivors
  // and the board still serves a full vector.
  EXPECT_EQ(board.loads().size(), 3u);
  double max_age = 0.0;
  for (int s = 0; s < 3; ++s) max_age = std::max(max_age, board.entry_age(s, 3.0));
  EXPECT_LT(max_age, 2.0);
}

TEST(RefreshFaultTest, ContinuousViewDropReusesOldView) {
  queueing::Cluster cluster(2, /*history_window=*/50.0);
  loadinfo::ContinuousView view(loadinfo::DelayKind::kConstant, 1.0,
                                /*know_actual_age=*/true);
  sim::Rng rng(3);
  cluster.assign(0.5, 0, 100.0);
  cluster.advance_to(2.0);
  view.observe(cluster, 2.0, rng);  // sees the cluster at t = 1
  EXPECT_EQ(view.loads()[0], 1);
  EXPECT_DOUBLE_EQ(view.reported_age(), 1.0);

  FakeFaults faults(/*drops=*/1);
  cluster.advance_to(5.0);
  view.observe(cluster, 5.0, rng, &faults);  // refresh lost: stuck at t = 1
  EXPECT_EQ(view.loads()[0], 1);
  EXPECT_DOUBLE_EQ(view.reported_age(), 4.0);  // the view aged 3 more units
}

// --- sanitization and liveness-aware picking ------------------------------

TEST(SanitizeTest, HealthyVectorIsUntouched) {
  std::vector<double> p = {0.25, 0.5, 0.25};
  const std::vector<double> original = p;
  EXPECT_FALSE(policy::sanitize_probabilities(p, {}));
  EXPECT_EQ(p, original);
  // Unnormalized but positive-mass vectors are also left alone (samplers
  // normalize internally; repairing would perturb fault-free runs).
  std::vector<double> q = {1.0, 3.0};
  EXPECT_FALSE(policy::sanitize_probabilities(q, {}));
}

TEST(SanitizeTest, RepairsNaNAndNegativeEntries) {
  std::vector<double> p = {std::nan(""), 0.5, -2.0};
  EXPECT_TRUE(policy::sanitize_probabilities(p, {}));
  EXPECT_DOUBLE_EQ(p[0], 0.0);
  EXPECT_DOUBLE_EQ(p[1], 0.5);
  EXPECT_DOUBLE_EQ(p[2], 0.0);
}

TEST(SanitizeTest, AllZeroFallsBackToUniformOverAlive) {
  std::vector<double> p = {0.0, 0.0, 0.0};
  const std::vector<std::uint8_t> alive = {1, 0, 1};
  EXPECT_TRUE(policy::sanitize_probabilities(p, alive));
  EXPECT_DOUBLE_EQ(p[0], 0.5);
  EXPECT_DOUBLE_EQ(p[1], 0.0);
  EXPECT_DOUBLE_EQ(p[2], 0.5);
}

TEST(SanitizeTest, MassOnDeadServerIsRemoved) {
  std::vector<double> p = {0.9, 0.1};
  const std::vector<std::uint8_t> alive = {0, 1};
  EXPECT_TRUE(policy::sanitize_probabilities(p, alive));
  EXPECT_DOUBLE_EQ(p[0], 0.0);
  EXPECT_DOUBLE_EQ(p[1], 0.1);
}

TEST(SanitizeTest, EverythingDeadDegradesToUniformOverAll) {
  std::vector<double> p = {1.0, 0.0};
  const std::vector<std::uint8_t> alive = {0, 0};
  EXPECT_TRUE(policy::sanitize_probabilities(p, alive));
  EXPECT_DOUBLE_EQ(p[0], 0.5);
  EXPECT_DOUBLE_EQ(p[1], 0.5);
}

TEST(SanitizeTest, PickUniformAliveRespectsMask) {
  sim::Rng rng(17);
  const std::vector<std::uint8_t> alive = {0, 1, 0, 1};
  for (int i = 0; i < 200; ++i) {
    const int pick = policy::pick_uniform_alive(alive, 4, rng);
    EXPECT_TRUE(pick == 1 || pick == 3);
  }
  // Empty mask: uniform over everyone.
  std::vector<int> seen(3, 0);
  for (int i = 0; i < 3000; ++i) {
    ++seen[static_cast<std::size_t>(policy::pick_uniform_alive({}, 3, rng))];
  }
  for (int count : seen) EXPECT_GT(count, 0);
}

// --- staleness cutoff -----------------------------------------------------

TEST(HardenedPolicyTest, FallsBackWhenInformationIsTooOld) {
  FaultStats stats;
  HardenedPolicy policy(policy::make_policy("basic_li"), /*max_staleness=*/2.0,
                        policy::make_policy("random"), &stats);
  const std::vector<int> loads = {0, 100, 100, 100};
  policy::DispatchContext context;
  context.loads = loads;
  context.lambda_total = 0.1;
  context.age = 0.5;  // fresh: Basic LI sends everything to server 0
  context.info_version = 1;
  sim::Rng rng(31);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(policy.select(context, rng), 0);
  EXPECT_EQ(stats.stale_fallbacks, 0u);

  context.age = 5.0;  // beyond the cutoff: uniform random fallback
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 4000; ++i) {
    ++counts[static_cast<std::size_t>(policy.select(context, rng))];
  }
  EXPECT_EQ(stats.stale_fallbacks, 4000u);
  for (int count : counts) EXPECT_GT(count, 800);
  EXPECT_EQ(policy.name(), "basic_li");  // reports the wrapped policy's name
}

TEST(HardenedPolicyTest, HardenPolicyIsIdentityWithoutCutoff) {
  policy::PolicyPtr inner = policy::make_policy("basic_li");
  policy::SelectionPolicy* raw = inner.get();
  policy::PolicyPtr result =
      harden_policy(std::move(inner), FaultSpec{}, 4.0, nullptr);
  EXPECT_EQ(result.get(), raw);
}

TEST(HardenedPolicyTest, CutoffResolvesIntervalMultiples) {
  const FaultSpec spec = FaultSpec::parse("cutoff=2T");
  FaultStats stats;
  policy::PolicyPtr hardened = harden_policy(policy::make_policy("basic_li"),
                                             spec, /*T=*/4.0, &stats);
  auto* wrapper = dynamic_cast<HardenedPolicy*>(hardened.get());
  ASSERT_NE(wrapper, nullptr);
  EXPECT_DOUBLE_EQ(wrapper->max_staleness(), 8.0);
}

// --- fault trial path end to end ------------------------------------------

driver::ExperimentConfig fault_config(driver::UpdateModel model,
                                      const std::string& spec) {
  driver::ExperimentConfig config;
  config.model = model;
  config.num_servers = 8;
  config.lambda = 0.85;
  config.update_interval = 2.0;
  config.policy = "basic_li";
  config.num_jobs = 8'000;
  config.warmup_jobs = 2'000;
  config.trials = 2;
  config.fault = FaultSpec::parse(spec);
  return config;
}

TEST(FaultTrialTest, DegradedRunStaysFiniteAndCountsFaults) {
  const auto config = fault_config(
      driver::UpdateModel::kPeriodic,
      "crash=0.01,down=2,loss=0.2,delay=0.5,cutoff=2T,fallback=random");
  const driver::ExperimentResult result = driver::run_experiment(config);
  EXPECT_TRUE(std::isfinite(result.mean()));
  EXPECT_GT(result.mean(), 0.0);
  EXPECT_GT(result.faults.crashes, 0u);
  EXPECT_GT(result.faults.updates_lost, 0u);
  EXPECT_GT(result.faults.updates_delayed, 0u);
  EXPECT_GT(result.faults.stale_fallbacks, 0u);
}

TEST(FaultTrialTest, LostVersusRequeueSemantics) {
  const auto lost = fault_config(driver::UpdateModel::kPeriodic,
                                 "crash=0.02,down=2,semantics=lost");
  const driver::ExperimentResult lost_result = driver::run_experiment(lost);
  EXPECT_GT(lost_result.faults.jobs_lost, 0u);
  EXPECT_EQ(lost_result.faults.jobs_requeued, 0u);

  const auto requeue = fault_config(driver::UpdateModel::kPeriodic,
                                    "crash=0.02,down=2,semantics=requeue");
  const driver::ExperimentResult requeue_result =
      driver::run_experiment(requeue);
  EXPECT_GT(requeue_result.faults.jobs_requeued, 0u);
}

TEST(FaultTrialTest, AllBoardModelsSurviveHeavyFaults) {
  for (const auto model :
       {driver::UpdateModel::kPeriodic, driver::UpdateModel::kContinuous,
        driver::UpdateModel::kIndividual}) {
    auto config = fault_config(
        model, "crash=0.02,down=3,loss=0.4,delay=1.0,estdrop=0.3,cutoff=3T");
    config.rate_estimator = "ewma:50";
    const driver::ExperimentResult result = driver::run_experiment(config);
    EXPECT_TRUE(std::isfinite(result.mean()))
        << driver::update_model_name(model);
    EXPECT_GT(result.faults.estimator_drops, 0u)
        << driver::update_model_name(model);
  }
}

TEST(FaultTrialTest, UpdateOnAccessRejectsFaults) {
  const auto config =
      fault_config(driver::UpdateModel::kUpdateOnAccess, "loss=0.1");
  EXPECT_THROW(driver::run_experiment(config), std::invalid_argument);
}

TEST(FaultTrialTest, ExperimentStatsAreSumOfTrialStats) {
  const auto config = fault_config(driver::UpdateModel::kPeriodic,
                                   "crash=0.01,down=2,loss=0.1");
  const driver::ExperimentResult experiment = driver::run_experiment(config);
  FaultStats summed;
  for (int trial = 0; trial < config.trials; ++trial) {
    const driver::TrialResult one =
        driver::run_trial(config, sim::trial_seed(config.base_seed, trial));
    summed.merge(one.faults);
  }
  EXPECT_EQ(summed, experiment.faults);
}

TEST(FaultTrialTest, FaultFreeSpecMatchesBaselinePathBitForBit) {
  // A default FaultSpec builds no fault injector and draws no fault streams:
  // adding the fault *layer* changes nothing for fault-free configurations.
  auto config = fault_config(driver::UpdateModel::kPeriodic, "");
  const driver::TrialResult a = driver::run_trial(config, 1234);
  config.fault = FaultSpec{};
  const driver::TrialResult b = driver::run_trial(config, 1234);
  EXPECT_EQ(a.mean_response, b.mean_response);
  EXPECT_EQ(a.measured_jobs, b.measured_jobs);
}

// --- reporting ------------------------------------------------------------

TEST(FaultReportTest, FormatsOnlyNonzeroCounters) {
  FaultStats stats;
  EXPECT_EQ(driver::format_fault_stats(stats), "none");
  stats.crashes = 3;
  stats.updates_lost = 17;
  EXPECT_EQ(driver::format_fault_stats(stats), "crashes=3 updates_lost=17");
}

TEST(FaultReportTest, JsonReportCarriesFaultCounters) {
  auto config = fault_config(driver::UpdateModel::kPeriodic,
                             "crash=0.01,down=2,loss=0.2");
  config.num_jobs = 4'000;
  config.warmup_jobs = 1'000;
  const driver::ExperimentResult result = driver::run_experiment(config);
  std::ostringstream os;
  driver::write_json_report(os, config, result, config.trials);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"fault_spec\": \"crash=0.01"), std::string::npos);
  EXPECT_NE(json.find("\"crashes\": "), std::string::npos);
  EXPECT_NE(json.find("\"mean_response\": "), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

}  // namespace
}  // namespace stale::fault
