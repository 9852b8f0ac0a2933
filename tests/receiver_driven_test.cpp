// Receiver-driven rebalancing in the trial engine: an idle server probes 3
// peers with fresh state and steals the youngest waiting job of the most
// backlogged one (ExperimentConfig::stealing).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>

#include "driver/experiment.h"

namespace stale::driver {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig config;
  config.num_jobs = 60'000;
  config.warmup_jobs = 15'000;
  config.trials = 1;
  return config;
}

double mean_with(ExperimentConfig config, bool stealing, int trials = 3) {
  config.stealing = stealing;
  double total = 0.0;
  for (int trial = 0; trial < trials; ++trial) {
    total += run_trial(config, sim::trial_seed(config.base_seed, trial))
                 .mean_response;
  }
  return total / trials;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(ReceiverDrivenTest, DisabledIsThePlainRunBitForBit) {
  // Stealing off draws nothing and tracks nothing extra, whatever the
  // migration delay says: the run is the plain engine's, bit for bit.
  for (const std::string policy : {"basic_li", "k_subset:2", "jiq"}) {
    ExperimentConfig plain = small_config();
    plain.num_jobs = 8'000;
    plain.warmup_jobs = 2'000;
    plain.policy = policy;
    plain.model = UpdateModel::kIndividual;
    plain.keep_response_samples = true;
    ExperimentConfig off = plain;
    off.migration_delay = 0.5;
    const TrialResult a = run_trial(plain, 11);
    const TrialResult b = run_trial(off, 11);
    EXPECT_TRUE(same_bits(a.mean_response, b.mean_response)) << policy;
    EXPECT_TRUE(same_bits(a.p99_response, b.p99_response)) << policy;
    EXPECT_TRUE(same_bits(a.sim_end_time, b.sim_end_time)) << policy;
    EXPECT_TRUE(same_bits(a.mean_queue_stddev, b.mean_queue_stddev))
        << policy;
    EXPECT_EQ(a.measured_jobs, b.measured_jobs) << policy;
  }
}

TEST(ReceiverDrivenTest, JobAccountingIsExact) {
  ExperimentConfig config = small_config();
  config.num_jobs = 10'000;
  config.warmup_jobs = 2'000;
  config.stealing = true;
  const TrialResult result = run_trial(config, 42);
  EXPECT_EQ(result.total_jobs, 10'000u);
  EXPECT_EQ(result.measured_jobs, 8'000u);
  EXPECT_GT(result.mean_response, 1.0);
}

TEST(ReceiverDrivenTest, DeterministicPerSeed) {
  ExperimentConfig config = small_config();
  config.stealing = true;
  const auto a = run_trial(config, 7);
  const auto b = run_trial(config, 7);
  EXPECT_TRUE(same_bits(a.mean_response, b.mean_response));
  EXPECT_TRUE(same_bits(a.sim_end_time, b.sim_end_time));
}

TEST(ReceiverDrivenTest, StealingRescuesHerdingPolicy) {
  // k = n at stale T herds catastrophically; receiver-initiated stealing
  // repairs most of the damage because receivers act on fresh state.
  ExperimentConfig config = small_config();
  config.update_interval = 16.0;
  config.policy = "k_subset:10";
  const double without = mean_with(config, false);
  const double with = mean_with(config, true);
  EXPECT_LT(with, 0.5 * without);
}

TEST(ReceiverDrivenTest, StealingHelpsRandomToo) {
  ExperimentConfig config = small_config();
  config.update_interval = 8.0;
  config.policy = "random";
  EXPECT_LT(mean_with(config, true), mean_with(config, false));
}

TEST(ReceiverDrivenTest, LiStillHelpsOnTopOfStealing) {
  // Good sender-side placement should remain useful even with receivers
  // cleaning up: LI+steal <= random+steal (within noise).
  ExperimentConfig config = small_config();
  config.update_interval = 8.0;
  config.policy = "random";
  const double random_steal = mean_with(config, true);
  config.policy = "basic_li";
  const double li_steal = mean_with(config, true);
  EXPECT_LT(li_steal, random_steal * 1.05);
}

TEST(ReceiverDrivenTest, MigrationCostReducesTheBenefit) {
  ExperimentConfig config = small_config();
  config.update_interval = 16.0;
  config.policy = "k_subset:10";
  config.migration_delay = 0.0;
  const double cheap = mean_with(config, true);
  config.migration_delay = 2.0;  // two mean service times per transfer
  EXPECT_LT(cheap, mean_with(config, true));
}

TEST(ReceiverDrivenTest, ValidatesArguments) {
  ExperimentConfig config = small_config();
  config.stealing = true;
  for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    config.migration_delay = bad;
    try {
      run_trial(config, 1);
      ADD_FAILURE() << "migration_delay " << bad << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("migration_delay"),
                std::string::npos)
          << error.what();
    }
  }

  // A one-server cluster has no peer to rob: stealing is a no-op there,
  // not an error.
  config = small_config();
  config.num_jobs = 4'000;
  config.warmup_jobs = 1'000;
  config.num_servers = 1;
  config.lambda = 0.5;
  const TrialResult plain = run_trial(config, 3);
  config.stealing = true;
  EXPECT_TRUE(same_bits(run_trial(config, 3).mean_response,
                        plain.mean_response));
}

// Counts every job that enters and leaves a queue. A steal re-enters the
// stolen job at the thief (one more dispatch), a requeue re-enters a crashed
// server's job; each job departs exactly once.
class FlowCounter : public obs::TraceSink {
 public:
  void on_dispatch(double, int, double, int, double) override {
    ++dispatches;
  }
  void on_departure(double, int, int) override { ++departures; }
  std::uint64_t dispatches = 0;
  std::uint64_t departures = 0;
};

struct ModelCase {
  const char* name;
  void (*configure)(ExperimentConfig&);
};

void PrintTo(const ModelCase& model_case, std::ostream* out) {
  *out << model_case.name;
}

class StealingEverywhereTest : public ::testing::TestWithParam<ModelCase> {};

TEST_P(StealingEverywhereTest, NoJobLostOrCountedTwice) {
  ExperimentConfig config;
  config.num_servers = 12;
  config.lambda = 0.9;
  config.update_interval = 8.0;
  config.policy = "k_subset:12";
  config.num_jobs = 8'000;
  config.warmup_jobs = 2'000;
  config.migration_delay = 0.1;
  config.keep_response_samples = true;
  GetParam().configure(config);

  const TrialResult without = run_trial(config, 5);
  config.stealing = true;
  FlowCounter flow;
  config.trace_sink = &flow;
  const TrialResult with = run_trial(config, 5);

  EXPECT_EQ(with.total_jobs, config.num_jobs);
  EXPECT_EQ(with.measured_jobs, config.num_jobs - config.warmup_jobs);
  EXPECT_EQ(with.faults.jobs_lost, 0u);
  EXPECT_EQ(with.faults.jobs_dropped, 0u);
  EXPECT_EQ(flow.departures, config.num_jobs);
  // Dispatches beyond the arrivals and requeues are steals.
  EXPECT_GT(flow.dispatches, config.num_jobs + with.faults.jobs_requeued);
  EXPECT_TRUE(std::isfinite(with.mean_response));
  EXPECT_LT(with.mean_response, without.mean_response);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsDispatchersFaults, StealingEverywhereTest,
    ::testing::Values(
        ModelCase{"individual",
                  [](ExperimentConfig& c) {
                    c.model = UpdateModel::kIndividual;
                  }},
        ModelCase{"continuous",
                  [](ExperimentConfig& c) {
                    c.model = UpdateModel::kContinuous;
                    c.delay_kind = loadinfo::DelayKind::kExponential;
                  }},
        ModelCase{"update_on_access",
                  [](ExperimentConfig& c) {
                    c.model = UpdateModel::kUpdateOnAccess;
                  }},
        ModelCase{"dispatchers3",
                  [](ExperimentConfig& c) { c.dispatchers = 3; }},
        ModelCase{"crash_faults",
                  [](ExperimentConfig& c) {
                    c.fault = fault::FaultSpec::parse(
                        "crash=0.005,down=4,semantics=requeue");
                  }},
        ModelCase{"crash_faults_bucketed",
                  [](ExperimentConfig& c) {
                    c.board_repr = policy::BoardRepr::kBucketed;
                    c.policy = "basic_li";
                    c.fault = fault::FaultSpec::parse(
                        "crash=0.005,down=4,semantics=requeue,loss=0.2");
                  }},
        ModelCase{"churn", [](ExperimentConfig& c) {
                    c.churn = health::ChurnSpec::parse(
                        "leave=0.005,rejoin=3,semantics=requeue");
                  }}),
    [](const ::testing::TestParamInfo<ModelCase>& info) {
      return std::string(info.param.name);
    });

TEST(ReceiverDrivenTest, JiqWithStealingConservesTokensAndJobs) {
  // A thief's token must not dangle once it steals; audit builds check
  // token conservation after every offer and at the end of the trial.
  ExperimentConfig config;
  config.num_servers = 12;
  config.lambda = 0.9;
  config.policy = "jiq";
  config.dispatchers = 2;
  config.num_jobs = 8'000;
  config.warmup_jobs = 2'000;
  config.stealing = true;
  FlowCounter flow;
  config.trace_sink = &flow;
  const TrialResult result = run_trial(config, 9);
  EXPECT_EQ(result.total_jobs, config.num_jobs);
  EXPECT_EQ(flow.departures, config.num_jobs);
  EXPECT_GE(flow.dispatches, config.num_jobs);
}

}  // namespace
}  // namespace stale::driver
