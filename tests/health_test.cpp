// Tests for the health subsystem: ChurnSpec parsing (mirrors the FaultSpec
// suite), the Membership liveness state machine, the deterministic
// ChurnInjector, level-index retirement, and the churn trial path end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/experiment.h"
#include "health/churn_injector.h"
#include "health/churn_spec.h"
#include "health/health_config.h"
#include "health/membership.h"
#include "queueing/cluster.h"
#include "sim/rng.h"

namespace stale::health {
namespace {

// --- ChurnSpec ------------------------------------------------------------

TEST(ChurnSpecTest, EmptyMeansNoChurn) {
  const ChurnSpec spec = ChurnSpec::parse("");
  EXPECT_FALSE(spec.any());
  EXPECT_EQ(spec.to_string(), "");
  // The health defaults still resolve: suspect at 2T, evict at 4T.
  const HealthConfig health = spec.resolved_health(0.5);
  EXPECT_DOUBLE_EQ(health.suspect_timeout, 1.0);
  EXPECT_DOUBLE_EQ(health.evict_timeout, 2.0);
  EXPECT_TRUE(health.enabled());
}

TEST(ChurnSpecTest, ParsesFullSpec) {
  const ChurnSpec spec = ChurnSpec::parse(
      "restart=5,restartdown=0.5,leave=0.01,rejoin=1,slow=2,slowfactor=0.5,"
      "semantics=requeue,suspect=2T,evict=4T,probation=3,probe=0.25,"
      "probemax=4,coverage=0.5,fallback=k_subset:2,retries=4,backoff=0.2");
  EXPECT_DOUBLE_EQ(spec.restart_every, 5.0);
  EXPECT_DOUBLE_EQ(spec.restart_down, 0.5);
  EXPECT_DOUBLE_EQ(spec.leave_rate, 0.01);
  EXPECT_DOUBLE_EQ(spec.rejoin_delay, 1.0);
  EXPECT_EQ(spec.slow, 2);
  EXPECT_DOUBLE_EQ(spec.slow_factor, 0.5);
  EXPECT_EQ(spec.semantics, fault::CrashSemantics::kRequeue);
  EXPECT_DOUBLE_EQ(spec.suspect_value, 2.0);
  EXPECT_TRUE(spec.suspect_in_intervals);
  EXPECT_DOUBLE_EQ(spec.evict_value, 4.0);
  EXPECT_TRUE(spec.evict_in_intervals);
  EXPECT_EQ(spec.probation_reports, 3);
  EXPECT_DOUBLE_EQ(spec.probe_backoff, 0.25);
  EXPECT_DOUBLE_EQ(spec.probe_backoff_max, 4.0);
  EXPECT_DOUBLE_EQ(spec.coverage_threshold, 0.5);
  EXPECT_EQ(spec.fallback_policy, "k_subset:2");
  EXPECT_EQ(spec.max_retries, 4);
  EXPECT_DOUBLE_EQ(spec.retry_backoff, 0.2);
  EXPECT_TRUE(spec.any());
}

TEST(ChurnSpecTest, TimeoutsResolveIntervalAndAbsoluteForms) {
  const HealthConfig intervals =
      ChurnSpec::parse("suspect=2T,evict=4T").resolved_health(0.25);
  EXPECT_DOUBLE_EQ(intervals.suspect_timeout, 0.5);
  EXPECT_DOUBLE_EQ(intervals.evict_timeout, 1.0);

  const ChurnSpec absolute = ChurnSpec::parse("suspect=3,evict=7");
  EXPECT_FALSE(absolute.suspect_in_intervals);
  EXPECT_FALSE(absolute.evict_in_intervals);
  const HealthConfig resolved = absolute.resolved_health(2.0);
  EXPECT_DOUBLE_EQ(resolved.suspect_timeout, 3.0);
  EXPECT_DOUBLE_EQ(resolved.evict_timeout, 7.0);

  // Mixed forms parse (the relative check only applies within one form) but
  // must still resolve to evict > suspect for the chosen T.
  const ChurnSpec mixed = ChurnSpec::parse("suspect=2T,evict=5");
  EXPECT_NO_THROW(mixed.resolved_health(1.0));
  EXPECT_THROW(mixed.resolved_health(10.0), std::invalid_argument);
}

TEST(ChurnSpecTest, HealthOnlySpecDrivesNoChurnProcess) {
  // This is the live dispatcher's --health shape: state-machine knobs only.
  const ChurnSpec spec = ChurnSpec::parse(
      "suspect=0.4,evict=0.8,probation=2,coverage=0.7,fallback=random");
  EXPECT_FALSE(spec.any());
  const HealthConfig health = spec.resolved_health(0.1);
  EXPECT_DOUBLE_EQ(health.suspect_timeout, 0.4);
  EXPECT_DOUBLE_EQ(health.evict_timeout, 0.8);
  EXPECT_DOUBLE_EQ(health.coverage_threshold, 0.7);
  // to_string serializes the *churn* a run injects; a spec with no churn
  // processes renders empty by design.
  EXPECT_EQ(spec.to_string(), "");
}

TEST(ChurnSpecTest, RejectsMalformedInput) {
  EXPECT_THROW(ChurnSpec::parse("bogus=1"), std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("restart"), std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("restart=abc"), std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("restart=-1"), std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("restart=5,restartdown=0"),
               std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("leave=0.1,rejoin=0"), std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("slow=-1"), std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("slow=2,slowfactor=0"), std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("slow=2,slowfactor=1.5"),
               std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("semantics=maybe"), std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("suspect=0"), std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("evict=0"), std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("suspect=3,evict=2"), std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("suspect=2T,evict=2T"), std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("probation=0"), std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("probe=0"), std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("probe=2,probemax=1"), std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("coverage=1.5"), std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("coverage=-0.1"), std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("fallback="), std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("retries=-1"), std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("backoff=-0.1"), std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("leave=0.1,=2"), std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("suspect=2x"), std::invalid_argument);
}

TEST(ChurnSpecTest, RejectsDuplicateKeys) {
  // Last-wins duplicates would silently disagree with the experimenter's
  // intent; every duplicate is a typo.
  EXPECT_THROW(ChurnSpec::parse("leave=0.1,leave=0"), std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("restart=5,restartdown=1,restart=6"),
               std::invalid_argument);
  EXPECT_THROW(ChurnSpec::parse("suspect=2T,suspect=3"),
               std::invalid_argument);
  EXPECT_THROW(
      ChurnSpec::parse("semantics=lost,semantics=requeue,restart=5"),
      std::invalid_argument);
  // Distinct keys still compose.
  EXPECT_NO_THROW(ChurnSpec::parse("leave=0.1,rejoin=0.5,slow=1"));
}

TEST(ChurnSpecTest, RoundTripsEveryFieldFamilyThroughToString) {
  const ChurnSpec spec = ChurnSpec::parse(
      "restart=5,restartdown=0.5,leave=0.01,rejoin=2,slow=2,slowfactor=0.25,"
      "semantics=lost,suspect=2.5T,evict=5T,probation=3,probe=0.25,"
      "probemax=4,coverage=0.5,fallback=k_subset:2,retries=4,backoff=0.2");
  const ChurnSpec reparsed = ChurnSpec::parse(spec.to_string());
  EXPECT_DOUBLE_EQ(reparsed.restart_every, spec.restart_every);
  EXPECT_DOUBLE_EQ(reparsed.restart_down, spec.restart_down);
  EXPECT_DOUBLE_EQ(reparsed.leave_rate, spec.leave_rate);
  EXPECT_DOUBLE_EQ(reparsed.rejoin_delay, spec.rejoin_delay);
  EXPECT_EQ(reparsed.slow, spec.slow);
  EXPECT_DOUBLE_EQ(reparsed.slow_factor, spec.slow_factor);
  EXPECT_EQ(reparsed.semantics, spec.semantics);
  EXPECT_DOUBLE_EQ(reparsed.suspect_value, spec.suspect_value);
  EXPECT_EQ(reparsed.suspect_in_intervals, spec.suspect_in_intervals);
  EXPECT_DOUBLE_EQ(reparsed.evict_value, spec.evict_value);
  EXPECT_EQ(reparsed.evict_in_intervals, spec.evict_in_intervals);
  EXPECT_EQ(reparsed.probation_reports, spec.probation_reports);
  EXPECT_DOUBLE_EQ(reparsed.probe_backoff, spec.probe_backoff);
  EXPECT_DOUBLE_EQ(reparsed.probe_backoff_max, spec.probe_backoff_max);
  EXPECT_DOUBLE_EQ(reparsed.coverage_threshold, spec.coverage_threshold);
  EXPECT_EQ(reparsed.fallback_policy, spec.fallback_policy);
  EXPECT_EQ(reparsed.max_retries, spec.max_retries);
  EXPECT_DOUBLE_EQ(reparsed.retry_backoff, spec.retry_backoff);

  // A 10-significant-digit value in every numeric family reparses exactly.
  const ChurnSpec precise = ChurnSpec::parse(
      "restart=5.123456789,restartdown=0.5123456789,leave=0.01234567891,"
      "rejoin=2.123456789,slow=2,slowfactor=0.2512345678,"
      "suspect=2.512345678T,evict=5.123456789T,probe=0.2512345678,"
      "probemax=4.123456789,coverage=0.5123456789,backoff=0.2123456789");
  const ChurnSpec precise_again = ChurnSpec::parse(precise.to_string());
  EXPECT_EQ(precise_again.restart_every, precise.restart_every);
  EXPECT_EQ(precise_again.restart_down, precise.restart_down);
  EXPECT_EQ(precise_again.leave_rate, precise.leave_rate);
  EXPECT_EQ(precise_again.rejoin_delay, precise.rejoin_delay);
  EXPECT_EQ(precise_again.slow_factor, precise.slow_factor);
  EXPECT_EQ(precise_again.suspect_value, precise.suspect_value);
  EXPECT_EQ(precise_again.evict_value, precise.evict_value);
  EXPECT_EQ(precise_again.probe_backoff, precise.probe_backoff);
  EXPECT_EQ(precise_again.probe_backoff_max, precise.probe_backoff_max);
  EXPECT_EQ(precise_again.coverage_threshold, precise.coverage_threshold);
  EXPECT_EQ(precise_again.retry_backoff, precise.retry_backoff);
}

// --- HealthConfig ---------------------------------------------------------

TEST(HealthConfigTest, ValidatesRanges) {
  HealthConfig config;
  EXPECT_FALSE(config.enabled());
  EXPECT_NO_THROW(config.validate());  // disabled config is fine

  config.suspect_timeout = 1.0;
  config.evict_timeout = 0.5;  // must exceed suspect once enabled
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.evict_timeout = 2.0;
  EXPECT_NO_THROW(config.validate());

  config.probation_reports = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.probation_reports = 2;
  config.probe_backoff_max = config.probe_backoff / 2.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.probe_backoff_max = 8.0;
  config.coverage_threshold = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.coverage_threshold = 0.5;
  config.fallback_policy.clear();
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

// --- Membership state machine ---------------------------------------------

HealthConfig test_health() {
  HealthConfig config;
  config.suspect_timeout = 1.0;
  config.evict_timeout = 2.0;
  config.probation_reports = 2;
  config.probe_backoff = 0.5;
  config.probe_backoff_max = 2.0;
  config.coverage_threshold = 0.5;
  return config;
}

TEST(MembershipTest, StartsFullyAlive) {
  Membership members(4, test_health(), /*now=*/0.0);
  EXPECT_EQ(members.candidate_count(), 4);
  EXPECT_DOUBLE_EQ(members.coverage(), 1.0);
  EXPECT_FALSE(members.degraded());
  EXPECT_EQ(members.transition_count(), 0u);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(members.state(s), MemberState::kAlive);
    EXPECT_EQ(members.candidates()[static_cast<std::size_t>(s)], 1);
  }
  EXPECT_THROW(Membership(0, test_health(), 0.0), std::invalid_argument);
  // A disabled config has no timeouts to drive the machine.
  EXPECT_THROW(Membership(4, HealthConfig{}, 0.0), std::invalid_argument);
}

TEST(MembershipTest, SilenceSuspectsThenEvicts) {
  Membership members(3, test_health(), 0.0);
  // Server 0 keeps reporting; 1 and 2 go silent after t = 0.
  members.note_report(0, 0.9);
  members.advance(1.2);  // past suspect_timeout for 1 and 2
  EXPECT_EQ(members.state(0), MemberState::kAlive);
  EXPECT_EQ(members.state(1), MemberState::kSuspect);
  EXPECT_EQ(members.state(2), MemberState::kSuspect);
  EXPECT_EQ(members.candidate_count(), 1);
  EXPECT_EQ(members.candidates()[1], 0);

  members.note_report(0, 1.8);
  members.advance(2.1);  // past evict_timeout
  EXPECT_EQ(members.state(1), MemberState::kDead);
  EXPECT_EQ(members.state(2), MemberState::kDead);
  EXPECT_EQ(members.evictions(), 2u);
  EXPECT_EQ(members.state(0), MemberState::kAlive);
}

TEST(MembershipTest, ReportClearsSuspicionWithoutProbation) {
  Membership members(2, test_health(), 0.0);
  members.advance(1.5);
  ASSERT_EQ(members.state(1), MemberState::kSuspect);
  // A suspect was merely late — one report restores it directly.
  members.note_report(1, 1.6);
  EXPECT_EQ(members.state(1), MemberState::kAlive);
  EXPECT_EQ(members.rejoins(), 0u);  // never died, not a rejoin
}

TEST(MembershipTest, DeadRejoinsThroughProbation) {
  Membership members(2, test_health(), 0.0);
  members.note_failure(1, 0.5);
  ASSERT_EQ(members.state(1), MemberState::kDead);
  EXPECT_EQ(members.evictions(), 1u);
  EXPECT_EQ(members.candidate_count(), 1);

  // First report: probation — a candidate again, but not yet trusted.
  members.note_report(1, 3.0);
  EXPECT_EQ(members.state(1), MemberState::kProbation);
  EXPECT_EQ(members.candidate_count(), 2);
  EXPECT_EQ(members.rejoins(), 0u);

  // Second consecutive report closes the loop.
  members.note_report(1, 3.1);
  EXPECT_EQ(members.state(1), MemberState::kAlive);
  EXPECT_EQ(members.rejoins(), 1u);
}

TEST(MembershipTest, SingleReportDoesNotReviveAFlappingServer) {
  HealthConfig config = test_health();
  config.probation_reports = 3;
  Membership members(2, config, 0.0);
  members.note_failure(1, 0.5);
  members.note_report(1, 1.0);
  ASSERT_EQ(members.state(1), MemberState::kProbation);
  // The server goes silent again before finishing probation: it falls
  // straight back to dead at the *suspect* deadline (no grace state for a
  // server that never regained trust).
  members.advance(2.1);
  EXPECT_EQ(members.state(1), MemberState::kDead);
  // The next report restarts probation from zero.
  members.note_report(1, 2.5);
  EXPECT_EQ(members.state(1), MemberState::kProbation);
  members.note_report(1, 2.6);
  EXPECT_EQ(members.state(1), MemberState::kProbation);
  members.note_report(1, 2.7);
  EXPECT_EQ(members.state(1), MemberState::kAlive);
}

TEST(MembershipTest, ProbeBackoffDoublesUpToCap) {
  Membership members(2, test_health(), 0.0);
  members.note_failure(1, 1.0);
  // First probe due after probe_backoff.
  EXPECT_FALSE(members.probe_due(1, 1.4));
  EXPECT_TRUE(members.probe_due(1, 1.5));
  members.note_probe(1, 1.5);  // interval doubles to 1.0
  EXPECT_FALSE(members.probe_due(1, 2.4));
  EXPECT_TRUE(members.probe_due(1, 2.5));
  members.note_probe(1, 2.5);  // doubles to 2.0 (the cap)
  EXPECT_TRUE(members.probe_due(1, 4.5));
  members.note_probe(1, 4.5);  // stays at the cap
  EXPECT_FALSE(members.probe_due(1, 6.4));
  EXPECT_TRUE(members.probe_due(1, 6.5));
  // Alive servers are never probed.
  EXPECT_FALSE(members.probe_due(0, 100.0));
  // Revival resets the schedule for the next death.
  members.note_report(1, 7.0);
  members.note_report(1, 7.1);
  members.note_failure(1, 8.0);
  EXPECT_TRUE(members.probe_due(1, 8.5));
}

TEST(MembershipTest, DegradedModeTracksCoverageThreshold) {
  Membership members(4, test_health(), 0.0);  // threshold 0.5
  members.note_failure(0, 0.1);
  EXPECT_DOUBLE_EQ(members.coverage(), 0.75);
  EXPECT_FALSE(members.degraded());
  members.note_failure(1, 0.2);
  // Coverage 0.5 is *at* the threshold, not below it.
  EXPECT_FALSE(members.degraded());
  members.note_failure(2, 0.3);
  EXPECT_TRUE(members.degraded());
  EXPECT_EQ(members.degraded_entries(), 1u);
  // One probation report lifts coverage back to the threshold.
  members.note_report(0, 1.0);
  EXPECT_FALSE(members.degraded());
  EXPECT_EQ(members.degraded_entries(), 1u);  // entries count crossings only
}

TEST(MembershipTest, TransitionCountAdvancesWithEveryStateChange) {
  Membership members(2, test_health(), 0.0);
  const std::uint64_t start = members.transition_count();
  members.note_failure(0, 0.5);       // alive -> dead
  members.note_report(0, 1.0);        // dead -> probation
  members.note_report(0, 1.1);        // probation -> alive
  EXPECT_EQ(members.transition_count(), start + 3);
  // Redundant events are not transitions.
  members.note_report(0, 1.2);
  members.note_failure(1, 2.0);
  members.note_failure(1, 2.1);  // already dead
  EXPECT_EQ(members.transition_count(), start + 4);
}

// --- ChurnInjector ---------------------------------------------------------

TEST(ChurnInjectorTest, NoChurnMeansNoTransitions) {
  sim::Rng rng(42);
  ChurnInjector injector(ChurnSpec{}, 4, rng);
  EXPECT_TRUE(std::isinf(injector.next_transition_time()));
  queueing::Cluster cluster(4);
  cluster.enable_job_tracking();
  injector.advance_to(cluster, 1e9, nullptr);
  EXPECT_EQ(injector.transition_count(), 0u);
  EXPECT_EQ(injector.up_count(), 4);
}

TEST(ChurnInjectorTest, RollingRestartScheduleIsExact) {
  sim::Rng rng(1);
  const ChurnSpec spec = ChurnSpec::parse("restart=5,restartdown=0.5");
  ChurnInjector injector(spec, 2, rng);
  queueing::Cluster cluster(2);
  cluster.enable_job_tracking();

  // Server 0 goes down at 5.0 and returns at 5.5; server 1 at 10.0/10.5.
  EXPECT_DOUBLE_EQ(injector.next_transition_time(), 5.0);
  injector.advance_to(cluster, 5.2, nullptr);
  EXPECT_EQ(injector.up()[0], 0);
  EXPECT_EQ(injector.up()[1], 1);
  EXPECT_EQ(injector.up_count(), 1);
  injector.advance_to(cluster, 5.6, nullptr);
  EXPECT_EQ(injector.up()[0], 1);
  injector.advance_to(cluster, 10.2, nullptr);
  EXPECT_EQ(injector.up()[1], 0);
  injector.advance_to(cluster, 10.6, nullptr);
  EXPECT_EQ(injector.up_count(), 2);
  // Server 0's second cycle lands at 2 * restart_every.
  injector.advance_to(cluster, 10.9, nullptr);
  EXPECT_DOUBLE_EQ(injector.next_transition_time(), 15.0);
  EXPECT_EQ(injector.stats().crashes, 2u);
  EXPECT_EQ(injector.stats().recoveries, 2u);
}

TEST(ChurnInjectorTest, LeaveScheduleIsSeedReproducible) {
  const ChurnSpec spec = ChurnSpec::parse("leave=0.2,rejoin=0.5");
  std::vector<std::uint64_t> counts;
  for (int rep = 0; rep < 2; ++rep) {
    sim::Rng rng(99);
    ChurnInjector injector(spec, 6, rng);
    queueing::Cluster cluster(6);
    cluster.enable_job_tracking();
    for (double t = 10.0; t <= 300.0; t += 10.0) {
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

TEST(ChurnInjectorTest, ChurnFreeSpecDrawsNoRandomness) {
  // Enabling an empty injector must not perturb the trial's other draws.
  sim::Rng a(7), b(7);
  ChurnInjector injector(ChurnSpec{}, 8, a);
  ChurnInjector other(ChurnSpec{}, 8, b);
  (void)other;
  EXPECT_DOUBLE_EQ(a.next_double(), b.next_double());
}

TEST(ChurnInjectorTest, RequeueSemanticsHandBackDisplacedJobs) {
  sim::Rng rng(3);
  const ChurnSpec spec =
      ChurnSpec::parse("restart=2,restartdown=0.5,semantics=requeue");
  ChurnInjector injector(spec, 2, rng);
  queueing::Cluster cluster(2);
  cluster.enable_job_tracking();
  cluster.assign_tagged(1.0, 0, 100.0, 11, 1.0);
  cluster.assign_tagged(1.5, 0, 100.0, 12, 1.5);

  std::vector<queueing::DisplacedJob> handed;
  injector.advance_to(cluster, 2.2,
                      [&](double when, const queueing::DisplacedJob& job) {
                        EXPECT_DOUBLE_EQ(when, 2.0);
                        handed.push_back(job);
                        return true;
                      });
  ASSERT_EQ(handed.size(), 2u);
  EXPECT_EQ(handed[0].tag, 11u);
  EXPECT_EQ(handed[1].tag, 12u);
  EXPECT_EQ(injector.stats().jobs_requeued, 2u);
  EXPECT_EQ(injector.stats().jobs_lost, 0u);
}

TEST(ChurnInjectorTest, LostSemanticsCountDisplacedJobs) {
  sim::Rng rng(3);
  const ChurnSpec spec =
      ChurnSpec::parse("restart=2,restartdown=0.5,semantics=lost");
  ChurnInjector injector(spec, 2, rng);
  queueing::Cluster cluster(2);
  cluster.enable_job_tracking();
  cluster.assign_tagged(1.0, 0, 100.0, 11, 1.0);
  injector.advance_to(cluster, 2.2, nullptr);
  EXPECT_EQ(injector.stats().jobs_lost, 1u);
  EXPECT_EQ(injector.stats().jobs_requeued, 0u);
}

// --- churn trial path end to end -------------------------------------------

driver::ExperimentConfig churn_config(driver::UpdateModel model,
                                      const std::string& spec) {
  driver::ExperimentConfig config;
  config.model = model;
  config.num_servers = 8;
  config.lambda = 0.8;
  config.update_interval = 2.0;
  config.policy = "basic_li";
  config.num_jobs = 8'000;
  config.warmup_jobs = 2'000;
  config.trials = 2;
  config.churn = ChurnSpec::parse(spec);
  return config;
}

TEST(ChurnTrialTest, SurvivesRollingRestartsAndCountsChurn) {
  const auto config = churn_config(
      driver::UpdateModel::kPeriodic,
      "restart=30,restartdown=2,suspect=2T,evict=4T,coverage=0.5,"
      "fallback=random");
  const driver::ExperimentResult result = driver::run_experiment(config);
  EXPECT_TRUE(std::isfinite(result.mean()));
  EXPECT_GT(result.mean(), 0.0);
  EXPECT_GT(result.faults.crashes, 0u);
  EXPECT_GT(result.faults.recoveries, 0u);
}

TEST(ChurnTrialTest, RunsOnBothBoardRepresentations) {
  for (const auto repr :
       {policy::BoardRepr::kVector, policy::BoardRepr::kBucketed}) {
    auto config = churn_config(driver::UpdateModel::kPeriodic,
                               "leave=0.005,rejoin=2,suspect=2T,evict=4T");
    config.board_repr = repr;
    const driver::ExperimentResult result = driver::run_experiment(config);
    EXPECT_TRUE(std::isfinite(result.mean()))
        << "repr=" << static_cast<int>(repr);
    EXPECT_GT(result.faults.crashes, 0u);
  }
}

TEST(ChurnTrialTest, TrialsAreSeedDeterministic) {
  for (const auto repr :
       {policy::BoardRepr::kVector, policy::BoardRepr::kBucketed}) {
    auto config = churn_config(
        driver::UpdateModel::kIndividual,
        "restart=40,restartdown=3,leave=0.004,rejoin=2,suspect=2T,evict=4T,"
        "coverage=0.5,fallback=random");
    config.board_repr = repr;
    const driver::TrialResult a = driver::run_trial(config, 1234);
    const driver::TrialResult b = driver::run_trial(config, 1234);
    EXPECT_EQ(a.mean_response, b.mean_response);
    EXPECT_EQ(a.measured_jobs, b.measured_jobs);
    EXPECT_EQ(a.faults, b.faults);
  }
}

TEST(ChurnTrialTest, RejectsUnsupportedCombinations) {
  // Churn + a crash fault: two owners for the one liveness process.
  auto both = churn_config(driver::UpdateModel::kPeriodic,
                           "restart=30,restartdown=2");
  both.fault = fault::FaultSpec::parse("crash=0.01,loss=0.1");
  EXPECT_THROW(driver::run_experiment(both), std::invalid_argument);
  // Models without a per-server report stream cannot feed the health layer.
  EXPECT_THROW(driver::run_experiment(churn_config(
                   driver::UpdateModel::kContinuous, "restart=30,restartdown=2")),
               std::invalid_argument);
  EXPECT_THROW(
      driver::run_experiment(churn_config(driver::UpdateModel::kUpdateOnAccess,
                                          "restart=30,restartdown=2")),
      std::invalid_argument);
}

TEST(ChurnTrialTest, ChurnFreeSpecMatchesBaselinePathBitForBit) {
  // Adding the churn *layer* must change nothing for existing configurations.
  auto config = churn_config(driver::UpdateModel::kPeriodic, "");
  const driver::TrialResult a = driver::run_trial(config, 4321);
  config.churn = ChurnSpec{};
  const driver::TrialResult b = driver::run_trial(config, 4321);
  EXPECT_EQ(a.mean_response, b.mean_response);
  EXPECT_EQ(a.measured_jobs, b.measured_jobs);
}

}  // namespace
}  // namespace stale::health
