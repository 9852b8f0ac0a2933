// Determinism of the multi-dispatcher engine under trial parallelism: a
// D-dispatcher run (per-dispatcher boards or continuous views, RNG streams,
// the fault injector's streams, and — for JIQ — the shared token directory)
// must produce bit-identical per-trial results whether trials execute
// serially or on a worker pool, on both board representations. Lives in tests/concurrency/ so the TSan CI job
// race-checks the DispatcherSet, ArrivalSplitter, and TokenDirectory
// plumbing wholesale (each trial owns its own instances; the suite proves
// the pool introduces no sharing).
#include <gtest/gtest.h>

#include "driver/experiment.h"

namespace {

using stale::driver::ExperimentConfig;
using stale::driver::ExperimentResult;
using stale::driver::run_experiment;

ExperimentConfig multi_config(const std::string& policy,
                              stale::policy::BoardRepr repr) {
  ExperimentConfig config;
  config.num_servers = 32;
  config.lambda = 0.85;
  config.model = stale::driver::UpdateModel::kPeriodic;
  config.update_interval = 2.0;
  config.policy = policy;
  config.board_repr = repr;
  config.dispatchers = 4;
  config.num_jobs = 8'000;
  config.warmup_jobs = 2'000;
  config.trials = 4;
  return config;
}

void expect_parallel_matches_serial(ExperimentConfig config) {
  config.jobs = 1;
  const ExperimentResult serial = run_experiment(config);
  config.jobs = 4;
  const ExperimentResult parallel = run_experiment(config);
  ASSERT_EQ(serial.trial_means.size(), parallel.trial_means.size());
  for (std::size_t trial = 0; trial < serial.trial_means.size(); ++trial) {
    EXPECT_EQ(serial.trial_means[trial], parallel.trial_means[trial])
        << "trial " << trial;
  }
  EXPECT_EQ(serial.faults, parallel.faults);
}

TEST(MultiDispatcherDeterminismTest, BasicLiVectorBitIdenticalAcrossJobs) {
  expect_parallel_matches_serial(
      multi_config("basic_li", stale::policy::BoardRepr::kVector));
}

TEST(MultiDispatcherDeterminismTest, BasicLiBucketedBitIdenticalAcrossJobs) {
  expect_parallel_matches_serial(
      multi_config("basic_li", stale::policy::BoardRepr::kBucketed));
}

TEST(MultiDispatcherDeterminismTest, JiqVectorBitIdenticalAcrossJobs) {
  expect_parallel_matches_serial(
      multi_config("jiq", stale::policy::BoardRepr::kVector));
}

TEST(MultiDispatcherDeterminismTest, JiqBucketedBitIdenticalAcrossJobs) {
  expect_parallel_matches_serial(
      multi_config("jiq:sq:2", stale::policy::BoardRepr::kBucketed));
}

TEST(MultiDispatcherDeterminismTest,
     IndividualModelWeightedSplitBitIdenticalAcrossJobs) {
  ExperimentConfig config =
      multi_config("jiq", stale::policy::BoardRepr::kVector);
  config.model = stale::driver::UpdateModel::kIndividual;
  config.dispatcher_split = stale::dispatch::DispatcherSplit::kWeighted;
  expect_parallel_matches_serial(config);
}

TEST(MultiDispatcherDeterminismTest, FaultInjectionBitIdenticalAcrossJobs) {
  ExperimentConfig config =
      multi_config("basic_li", stale::policy::BoardRepr::kVector);
  config.fault = stale::fault::FaultSpec::parse(
      "crash=0.01,down=2,semantics=requeue,loss=0.2,delay=0.5,estdrop=0.1,"
      "cutoff=2T");
  config.rate_estimator = "ewma:50";
  expect_parallel_matches_serial(config);
  config.jobs = 1;
  const ExperimentResult result = run_experiment(config);
  EXPECT_GT(result.faults.crashes, 0u);  // the spec actually fired
  EXPECT_GT(result.faults.updates_lost, 0u);
  EXPECT_GT(result.faults.stale_fallbacks, 0u);
}

TEST(MultiDispatcherDeterminismTest, ContinuousModelBitIdenticalAcrossJobs) {
  ExperimentConfig config =
      multi_config("basic_li", stale::policy::BoardRepr::kBucketed);
  config.model = stale::driver::UpdateModel::kContinuous;
  config.delay_kind = stale::loadinfo::DelayKind::kExponential;
  expect_parallel_matches_serial(config);
}

TEST(MultiDispatcherDeterminismTest,
     ContinuousModelWithFaultsBitIdenticalAcrossJobs) {
  ExperimentConfig config =
      multi_config("k_subset:2", stale::policy::BoardRepr::kVector);
  config.model = stale::driver::UpdateModel::kContinuous;
  config.fault = stale::fault::FaultSpec::parse(
      "crash=0.01,down=2,semantics=requeue,loss=0.1,delay=0.5");
  expect_parallel_matches_serial(config);
}

}  // namespace
