// Determinism of the churn trial path under trial parallelism: a run with
// membership churn (rolling restarts + Poisson leave/rejoin feeding the
// health state machine), alone or beside degraded information, must produce
// bit-identical per-trial results and fault counters whether trials execute
// serially or on a worker pool, on both board representations. Lives in
// tests/concurrency/ so the TSan CI job race-checks the churn injector,
// Membership, and the level-index retirement plumbing wholesale.
#include <gtest/gtest.h>

#include "driver/experiment.h"
#include "fault/fault_spec.h"
#include "health/churn_spec.h"

namespace {

using stale::driver::ExperimentConfig;
using stale::driver::ExperimentResult;
using stale::driver::run_experiment;

ExperimentConfig churn_config(stale::driver::UpdateModel model,
                              stale::policy::BoardRepr repr) {
  ExperimentConfig config;
  config.num_servers = 32;
  config.lambda = 0.85;
  config.model = model;
  config.update_interval = 2.0;
  config.policy = "basic_li";
  config.board_repr = repr;
  config.num_jobs = 8'000;
  config.warmup_jobs = 2'000;
  config.trials = 4;
  // Restarts roll through all 32 servers inside each trial's horizon, the
  // leave process keeps transitions unscheduled, and the coverage threshold
  // exercises degraded-mode flips under parallel trials.
  config.churn = stale::health::ChurnSpec::parse(
      "restart=60,restartdown=4,leave=0.002,rejoin=2,semantics=requeue,"
      "suspect=2T,evict=4T,probation=2,coverage=0.5,fallback=random");
  return config;
}

// `serial_out` (nullable) receives the serial run, for callers that check
// what it injected.
void expect_parallel_matches_serial(ExperimentConfig config,
                                    ExperimentResult* serial_out = nullptr) {
  config.jobs = 1;
  const ExperimentResult serial = run_experiment(config);
  config.jobs = 4;
  const ExperimentResult parallel = run_experiment(config);
  ASSERT_EQ(serial.trial_means.size(), parallel.trial_means.size());
  for (std::size_t trial = 0; trial < serial.trial_means.size(); ++trial) {
    EXPECT_EQ(serial.trial_means[trial], parallel.trial_means[trial])
        << "trial " << trial;
  }
  // The injected churn and the health subsystem's reactions must replay
  // identically too — FaultStats equality is member-wise.
  EXPECT_EQ(serial.faults, parallel.faults);
  EXPECT_GT(serial.faults.crashes, 0u);
  if (serial_out != nullptr) *serial_out = serial;
}

TEST(ChurnDeterminismTest, PeriodicVectorBitIdenticalAcrossJobs) {
  expect_parallel_matches_serial(
      churn_config(stale::driver::UpdateModel::kPeriodic,
                   stale::policy::BoardRepr::kVector));
}

TEST(ChurnDeterminismTest, PeriodicBucketedBitIdenticalAcrossJobs) {
  expect_parallel_matches_serial(
      churn_config(stale::driver::UpdateModel::kPeriodic,
                   stale::policy::BoardRepr::kBucketed));
}

TEST(ChurnDeterminismTest, IndividualBucketedBitIdenticalAcrossJobs) {
  expect_parallel_matches_serial(
      churn_config(stale::driver::UpdateModel::kIndividual,
                   stale::policy::BoardRepr::kBucketed));
}

TEST(ChurnDeterminismTest, FaultsBesideChurnBucketedBitIdenticalAcrossJobs) {
  // Degraded information rides beside churn on the counted path: the fault
  // injector's streams, the liveness process and the level-index
  // retirement must all replay identically on a worker pool.
  ExperimentConfig config =
      churn_config(stale::driver::UpdateModel::kIndividual,
                   stale::policy::BoardRepr::kBucketed);
  config.fault =
      stale::fault::FaultSpec::parse("loss=0.2,delay=0.5,cutoff=2T");
  ExperimentResult serial;
  expect_parallel_matches_serial(config, &serial);
  EXPECT_GT(serial.faults.updates_lost, 0u);
  EXPECT_GT(serial.faults.updates_delayed, 0u);
}

}  // namespace
