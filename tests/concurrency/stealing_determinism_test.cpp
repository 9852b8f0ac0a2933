// Receiver-driven stealing keeps the runtime's guarantee: its probes draw
// from a stream split off each trial's own engine, so a stealing run is
// bit-identical whether its trials run on 1 worker or on 4.
#include <gtest/gtest.h>

#include <cstring>

#include "driver/experiment.h"

namespace stale::driver {
namespace {

::testing::AssertionResult bits_equal(double a, double b) {
  if (std::memcmp(&a, &b, sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ in their bit patterns";
}

void expect_jobs_invariant(ExperimentConfig config) {
  config.jobs = 1;
  const ExperimentResult serial = run_experiment(config);
  config.jobs = 4;
  const ExperimentResult parallel = run_experiment(config);
  ASSERT_EQ(serial.trial_means.size(), parallel.trial_means.size());
  for (std::size_t i = 0; i < serial.trial_means.size(); ++i) {
    EXPECT_TRUE(bits_equal(serial.trial_means[i], parallel.trial_means[i]))
        << "trial " << i;
  }
  EXPECT_TRUE(bits_equal(serial.ci90(), parallel.ci90()));
  EXPECT_EQ(serial.faults.jobs_requeued, parallel.faults.jobs_requeued);
}

ExperimentConfig stealing_config() {
  ExperimentConfig config;
  config.num_servers = 10;
  config.lambda = 0.9;
  config.update_interval = 8.0;
  config.policy = "k_subset:10";
  config.num_jobs = 6'000;
  config.warmup_jobs = 1'000;
  config.trials = 8;
  config.stealing = true;
  config.migration_delay = 0.1;
  return config;
}

TEST(StealingDeterminismTest, PeriodicBitIdenticalAcrossJobs) {
  expect_jobs_invariant(stealing_config());
}

TEST(StealingDeterminismTest, FaultsAndDispatchersBitIdenticalAcrossJobs) {
  ExperimentConfig config = stealing_config();
  config.model = UpdateModel::kIndividual;
  config.dispatchers = 3;
  config.fault =
      fault::FaultSpec::parse("crash=0.005,down=3,semantics=requeue,loss=0.1");
  expect_jobs_invariant(config);
}

}  // namespace
}  // namespace stale::driver
