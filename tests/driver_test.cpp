#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/cli.h"
#include "driver/experiment.h"
#include "driver/sweep.h"
#include "driver/table.h"
#include "driver/trial_workload.h"

namespace stale::driver {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig config;
  config.num_jobs = 20'000;
  config.warmup_jobs = 5'000;
  config.trials = 2;
  return config;
}

TEST(ExperimentConfigTest, ValidationCatchesBadValues) {
  ExperimentConfig config = small_config();
  config.num_servers = 0;
  EXPECT_THROW(run_experiment(config), std::invalid_argument);

  config = small_config();
  config.lambda = 0.0;
  EXPECT_THROW(run_experiment(config), std::invalid_argument);

  config = small_config();
  config.warmup_jobs = config.num_jobs;
  EXPECT_THROW(run_experiment(config), std::invalid_argument);

  config = small_config();
  config.trials = 0;
  EXPECT_THROW(run_experiment(config), std::invalid_argument);

  config = small_config();
  config.update_interval = 0.0;
  EXPECT_THROW(run_experiment(config), std::invalid_argument);
}

TEST(ExperimentConfigTest, BucketedValidationAndAutoResolution) {
  // Explicit bucketed + fault injection validates and runs.
  ExperimentConfig config = small_config();
  config.num_jobs = 2'000;
  config.warmup_jobs = 500;
  config.board_repr = policy::BoardRepr::kBucketed;
  config.fault.crash_rate = 0.01;
  EXPECT_GT(run_experiment(config).faults.crashes, 0u);

  // Auto: vector below the threshold, bucketed at/above it under every
  // model, with or without faults.
  config = small_config();
  EXPECT_FALSE(config.resolved_bucketed());  // default n = 10
  config.num_servers = policy::kBucketedAutoThreshold;
  EXPECT_TRUE(config.resolved_bucketed());
  config.model = UpdateModel::kUpdateOnAccess;
  EXPECT_TRUE(config.resolved_bucketed());
  config.model = UpdateModel::kPeriodic;
  config.fault.crash_rate = 0.01;
  EXPECT_TRUE(config.resolved_bucketed());
  config.fault.crash_rate = 0.0;
  config.board_repr = policy::BoardRepr::kVector;
  EXPECT_FALSE(config.resolved_bucketed());
  config.board_repr = policy::BoardRepr::kBucketed;
  config.num_servers = 10;
  EXPECT_TRUE(config.resolved_bucketed());  // explicit request, small n
}

// Runs `config` and returns validate()'s message, or "" if it ran.
std::string rejection(const ExperimentConfig& config) {
  try {
    run_trial(config, 1);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ExperimentConfigTest, RejectsFieldsTheModelDoesNotRead) {
  // A flag a model ignores would print output byte-identical to the run
  // without it; validate() names the field and the model instead.
  struct Case {
    UpdateModel model;
    const char* field;
    void (*set)(ExperimentConfig&);
  };
  const Case cases[] = {
      {UpdateModel::kPeriodic, "bursty",
       [](ExperimentConfig& c) { c.bursty = true; }},
      {UpdateModel::kIndividual, "min_jobs_per_client",
       [](ExperimentConfig& c) { c.min_jobs_per_client = 10; }},
      {UpdateModel::kPeriodic, "know_actual_age",
       [](ExperimentConfig& c) { c.know_actual_age = true; }},
      {UpdateModel::kUpdateOnAccess, "know_actual_age",
       [](ExperimentConfig& c) { c.know_actual_age = true; }},
      {UpdateModel::kPeriodic, "delay_kind",
       [](ExperimentConfig& c) {
         c.delay_kind = loadinfo::DelayKind::kExponential;
       }},
      {UpdateModel::kUpdateOnAccess, "delay_kind",
       [](ExperimentConfig& c) {
         c.delay_kind = loadinfo::DelayKind::kUniformFull;
       }},
      {UpdateModel::kContinuous, "bursty",
       [](ExperimentConfig& c) { c.bursty = true; }},
  };
  for (const Case& c : cases) {
    ExperimentConfig config = small_config();
    config.num_jobs = 2'000;
    config.warmup_jobs = 500;
    config.model = c.model;
    const std::string model = update_model_name(c.model);
    EXPECT_EQ(rejection(config), "") << model;
    c.set(config);
    const std::string message = rejection(config);
    EXPECT_NE(message.find(c.field), std::string::npos) << message;
    EXPECT_NE(message.find(model), std::string::npos) << message;
  }
  // Each field is accepted on the model that reads it.
  ExperimentConfig config = small_config();
  config.num_jobs = 2'000;
  config.warmup_jobs = 500;
  config.model = UpdateModel::kContinuous;
  config.know_actual_age = true;
  config.delay_kind = loadinfo::DelayKind::kExponential;
  EXPECT_EQ(rejection(config), "");
  config = small_config();
  config.num_jobs = 2'000;
  config.warmup_jobs = 500;
  config.model = UpdateModel::kUpdateOnAccess;
  config.bursty = true;
  config.min_jobs_per_client = 10;
  EXPECT_EQ(rejection(config), "");
}

TEST(ExperimentConfigTest, UpdateOnAccessRejectsWhatItCannotExpress) {
  ExperimentConfig config = small_config();
  config.num_jobs = 2'000;
  config.warmup_jobs = 500;
  config.model = UpdateModel::kUpdateOnAccess;
  ExperimentConfig bad = config;
  bad.dispatchers = 2;
  EXPECT_NE(rejection(bad).find("client population"), std::string::npos);
  bad = config;
  bad.arrival_spec = "mmpp:0.5:3:20:5";
  EXPECT_NE(rejection(bad).find("gap processes"), std::string::npos);
  bad = config;
  bad.fault = fault::FaultSpec::parse("loss=0.1,delay=0.5");
  EXPECT_NE(rejection(bad).find("late reply"), std::string::npos);
  bad = config;
  bad.churn = health::ChurnSpec::parse("restart=6");
  EXPECT_NE(rejection(bad).find("report"), std::string::npos);
}

TEST(UpdateOnAccessTest, RunsBucketedAtScale) {
  // n = 2048 resolves to the bucketed path under auto; each request's level
  // index is built from its client's snapshot.
  ExperimentConfig config = small_config();
  config.model = UpdateModel::kUpdateOnAccess;
  config.num_servers = 2048;
  config.update_interval = 0.5;  // 922 clients
  config.num_jobs = 6'000;
  config.warmup_jobs = 2'000;
  ASSERT_TRUE(config.resolved_bucketed());
  const TrialResult result = run_trial(config, 21);
  EXPECT_GT(result.mean_response, 0.9);
  EXPECT_LT(result.mean_response, 3.0);
  EXPECT_EQ(result.measured_jobs, 4'000u);
  EXPECT_GT(result.mean_queue_length, 0.0);
}

TEST(UpdateOnAccessTest, RateEstimatorIsHonoured) {
  ExperimentConfig config = small_config();
  config.model = UpdateModel::kUpdateOnAccess;
  config.num_servers = 20;
  config.update_interval = 8.0;
  config.num_jobs = 8'000;
  config.warmup_jobs = 2'000;
  const double told = run_trial(config, 7).mean_response;
  for (const char* estimator : {"conservative", "ewma:20"}) {
    config.rate_estimator = estimator;
    EXPECT_NE(run_trial(config, 7).mean_response, told) << estimator;
  }
  config.fault = fault::FaultSpec::parse("estdrop=0.3");
  EXPECT_GT(run_trial(config, 7).faults.estimator_drops, 0u);
}

TEST(RunTrialTest, BucketedAndVectorReprsBothRunSmallClusters) {
  // Statistical (not bit) equivalence: the two representations draw
  // different RNG sequences, so just assert both produce sane results on the
  // same configuration and are individually deterministic.
  ExperimentConfig config = small_config();
  config.num_servers = 64;
  config.policy = "aggressive_li";
  config.board_repr = policy::BoardRepr::kBucketed;
  const TrialResult bucketed = run_trial(config, 99);
  const TrialResult bucketed_again = run_trial(config, 99);
  EXPECT_EQ(bucketed.mean_response, bucketed_again.mean_response);
  config.board_repr = policy::BoardRepr::kVector;
  const TrialResult vector_repr = run_trial(config, 99);
  EXPECT_GT(bucketed.mean_response, 0.0);
  EXPECT_GT(vector_repr.mean_response, 0.0);
  // Same workload scale either way.
  EXPECT_EQ(bucketed.total_jobs, vector_repr.total_jobs);
}

TEST(ExperimentConfigTest, BelievedRateAppliesOverridesAndErrors) {
  ExperimentConfig config;
  config.num_servers = 10;
  config.lambda = 0.9;
  EXPECT_DOUBLE_EQ(config.believed_total_rate(), 9.0);
  config.lambda_error_factor = 2.0;
  EXPECT_DOUBLE_EQ(config.believed_total_rate(), 18.0);
  config.lambda_estimate_per_server = 1.0;
  EXPECT_DOUBLE_EQ(config.believed_total_rate(), 20.0);
}

TEST(RunTrialTest, DeterministicForSameSeed) {
  const ExperimentConfig config = small_config();
  const TrialResult a = run_trial(config, 12345);
  const TrialResult b = run_trial(config, 12345);
  EXPECT_EQ(a.mean_response, b.mean_response);
  EXPECT_EQ(a.measured_jobs, b.measured_jobs);
  EXPECT_EQ(a.sim_end_time, b.sim_end_time);
}

TEST(RunTrialTest, DifferentSeedsDiffer) {
  const ExperimentConfig config = small_config();
  EXPECT_NE(run_trial(config, 1).mean_response,
            run_trial(config, 2).mean_response);
}

TEST(RunTrialTest, CountsJobsCorrectly) {
  const ExperimentConfig config = small_config();
  const TrialResult result = run_trial(config, 7);
  EXPECT_EQ(result.total_jobs, config.num_jobs);
  EXPECT_EQ(result.measured_jobs, config.num_jobs - config.warmup_jobs);
  EXPECT_GT(result.sim_end_time, 0.0);
}

TEST(RunTrialTest, SimulatedDurationMatchesArrivalRate) {
  ExperimentConfig config = small_config();
  config.lambda = 0.5;  // aggregate rate 5 -> 20k jobs ~ 4000 time units
  const TrialResult result = run_trial(config, 11);
  EXPECT_NEAR(result.sim_end_time, 4000.0, 200.0);
}

TEST(RunTrialTest, EveryModelRuns) {
  for (UpdateModel model :
       {UpdateModel::kPeriodic, UpdateModel::kContinuous,
        UpdateModel::kUpdateOnAccess, UpdateModel::kIndividual}) {
    ExperimentConfig config = small_config();
    config.model = model;
    config.update_interval = 2.0;
    const TrialResult result = run_trial(config, 3);
    EXPECT_GT(result.mean_response, 0.9) << update_model_name(model);
    EXPECT_LT(result.mean_response, 100.0) << update_model_name(model);
  }
}

TEST(RunTrialTest, EveryPolicyRunsUnderEveryModel) {
  const std::vector<std::string> policies = {
      "random",   "k_subset:2", "threshold:2:4", "basic_li",
      "hybrid_li", "aggressive_li", "basic_li_k:3"};
  for (UpdateModel model :
       {UpdateModel::kPeriodic, UpdateModel::kContinuous,
        UpdateModel::kUpdateOnAccess}) {
    for (const auto& policy : policies) {
      ExperimentConfig config = small_config();
      config.num_jobs = 5'000;
      config.warmup_jobs = 1'000;
      config.model = model;
      config.policy = policy;
      const TrialResult result = run_trial(config, 5);
      EXPECT_GT(result.mean_response, 0.5)
          << update_model_name(model) << "/" << policy;
    }
  }
}

TEST(RunExperimentTest, AggregatesAcrossTrials) {
  ExperimentConfig config = small_config();
  config.trials = 4;
  const ExperimentResult result = run_experiment(config);
  EXPECT_EQ(result.trial_means.size(), 4u);
  EXPECT_EQ(result.across_trials.count(), 4u);
  EXPECT_GT(result.ci90(), 0.0);
  const sim::BoxStats box = result.box();
  EXPECT_LE(box.min, box.median);
  EXPECT_LE(box.median, box.max);
}

TEST(UpdateOnAccessTest, MinJobsPerClientExtendsRun) {
  ExperimentConfig config = small_config();
  config.model = UpdateModel::kUpdateOnAccess;
  config.update_interval = 100.0;  // 900 clients at lambda * n = 9
  config.num_jobs = 10'000;
  config.warmup_jobs = 2'000;
  config.min_jobs_per_client = 20;  // needs 18k jobs > 10k
  const TrialResult result = run_trial(config, 9);
  EXPECT_GE(result.total_jobs, 18'000u);
}

TEST(UpdateOnAccessTest, BurstyVariantRuns) {
  ExperimentConfig config = small_config();
  config.model = UpdateModel::kUpdateOnAccess;
  config.bursty = true;
  config.update_interval = 10.0;
  const TrialResult result = run_trial(config, 13);
  EXPECT_GT(result.mean_response, 0.9);
}

TEST(TableTest, AlignedOutputContainsHeadersAndRule) {
  Table table({"x", "value"});
  table.add_row({"1", "2.5"});
  std::ostringstream os;
  table.print(os, /*csv=*/false);
  const std::string text = os.str();
  EXPECT_NE(text.find("x"), std::string::npos);
  EXPECT_NE(text.find("--"), std::string::npos);
  EXPECT_NE(text.find("2.5"), std::string::npos);
}

TEST(TableTest, CsvOutput) {
  Table table({"a", "b"});
  table.add_row({"1", "2"});
  std::ostringstream os;
  table.print(os, /*csv=*/true);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TableTest, RejectsMismatchedRow) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"1"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt_ci(1.5, 0.25, 2), "1.50+-0.25");
}

TEST(CliTest, ParsesStandardFlags) {
  const char* argv[] = {"bench", "--fast", "--csv", "--seed", "77"};
  Cli cli(5, argv);
  EXPECT_TRUE(cli.has("fast"));
  EXPECT_TRUE(cli.csv());
  ExperimentConfig config;
  cli.apply_run_scale(config);
  EXPECT_EQ(config.num_jobs, 20'000u);
  EXPECT_EQ(config.trials, 2);
  EXPECT_EQ(config.base_seed, 77u);
}

TEST(CliTest, PaperScaleAndInlineValues) {
  const char* argv[] = {"bench", "--paper", "--trials=3"};
  Cli cli(3, argv);
  ExperimentConfig config;
  cli.apply_run_scale(config);
  EXPECT_EQ(config.num_jobs, 500'000u);
  EXPECT_EQ(config.trials, 3);  // explicit override wins
}

TEST(CliTest, DefaultScale) {
  const char* argv[] = {"bench"};
  Cli cli(1, argv);
  ExperimentConfig config;
  cli.apply_run_scale(config);
  EXPECT_EQ(config.num_jobs, 120'000u);
  EXPECT_EQ(config.trials, 5);
  EXPECT_NE(cli.scale_description().find("default"), std::string::npos);
}

TEST(CliTest, ExtraFlagsAndSwitches) {
  const char* argv[] = {"bench", "--t-max", "32", "--box"};
  Cli cli(4, argv, {{"t-max", "T", "largest T"}, {"box", "", "box stats"}});
  EXPECT_DOUBLE_EQ(cli.number("t-max", 0.0), 32.0);
  EXPECT_TRUE(cli.has("box"));
}

TEST(CliTest, RejectsBadInput) {
  const char* unknown[] = {"bench", "--bogus"};
  EXPECT_THROW(Cli(2, unknown), std::invalid_argument);
  const char* missing[] = {"bench", "--jobs"};
  EXPECT_THROW(Cli(2, missing), std::invalid_argument);
  const char* positional[] = {"bench", "123"};
  EXPECT_THROW(Cli(2, positional), std::invalid_argument);
  const char* both[] = {"bench", "--paper", "--fast"};
  EXPECT_THROW(Cli(3, both), std::invalid_argument);
}

TEST(CliTest, RejectsValueOnSwitch) {
  const char* argv[] = {"bench", "--paper=1"};
  try {
    Cli cli(2, argv);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("does not take a value"),
              std::string::npos);
  }
}

TEST(CliTest, NumericErrorsNameTheFlagAndValue) {
  const char* bad[] = {"bench", "--trials", "three"};
  try {
    ExperimentConfig config;
    Cli(3, bad).apply_run_scale(config);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("--trials"), std::string::npos);
    EXPECT_NE(what.find("three"), std::string::npos);
  }

  const char* trailing[] = {"bench", "--seed", "12x"};
  ExperimentConfig config;
  EXPECT_THROW(Cli(3, trailing).apply_run_scale(config),
               std::invalid_argument);

  const char* overflow[] = {"bench", "--seed", "99999999999999999999999999"};
  try {
    Cli(3, overflow).apply_run_scale(config);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("out of range"),
              std::string::npos);
  }
}

TEST(CliTest, RangeChecksRunScale) {
  ExperimentConfig config;
  const char* zero_jobs[] = {"bench", "--num-jobs", "0"};
  EXPECT_THROW(Cli(3, zero_jobs).apply_run_scale(config),
               std::invalid_argument);
  const char* warmup_too_big[] = {"bench", "--num-jobs", "100", "--warmup",
                                  "100"};
  EXPECT_THROW(Cli(5, warmup_too_big).apply_run_scale(config),
               std::invalid_argument);
  const char* zero_trials[] = {"bench", "--trials", "0"};
  EXPECT_THROW(Cli(3, zero_trials).apply_run_scale(config),
               std::invalid_argument);
  const char* negative_seed[] = {"bench", "--seed", "-1"};
  EXPECT_THROW(Cli(3, negative_seed).apply_run_scale(config),
               std::invalid_argument);
  const char* zero_workers[] = {"bench", "--jobs", "0"};
  EXPECT_THROW(Cli(3, zero_workers).apply_run_scale(config),
               std::invalid_argument);
}

TEST(CliTest, FaultFlagsBuildTheSpec) {
  const char* argv[] = {"bench",        "--fault-spec", "loss=0.1,delay=0.5",
                        "--crash-rate", "0.01",         "--update-loss",
                        "0.2",          "--max-staleness", "2T"};
  Cli cli(9, argv);
  ExperimentConfig config;
  cli.apply_run_scale(config);
  // --fault-spec provides the base; dedicated flags overlay it.
  EXPECT_DOUBLE_EQ(config.fault.update_extra_delay, 0.5);
  EXPECT_DOUBLE_EQ(config.fault.crash_rate, 0.01);
  EXPECT_DOUBLE_EQ(config.fault.update_loss, 0.2);  // overlay wins over 0.1
  EXPECT_DOUBLE_EQ(config.fault.cutoff_value, 2.0);
  EXPECT_TRUE(config.fault.cutoff_in_intervals);
  EXPECT_TRUE(config.fault.any());
}

TEST(CliTest, FaultFlagsRejectBadValues) {
  ExperimentConfig config;
  const char* bad_spec[] = {"bench", "--fault-spec", "bogus=1"};
  EXPECT_THROW(Cli(3, bad_spec).apply_run_scale(config),
               std::invalid_argument);
  const char* bad_loss[] = {"bench", "--update-loss", "1.5"};
  EXPECT_THROW(Cli(3, bad_loss).apply_run_scale(config),
               std::invalid_argument);
  const char* bad_cutoff[] = {"bench", "--max-staleness", "-1"};
  EXPECT_THROW(Cli(3, bad_cutoff).apply_run_scale(config),
               std::invalid_argument);
}

TEST(CliTest, BoardReprFlagParsesAndRejectsBadValues) {
  const char* argv[] = {"bench", "--board-repr", "bucketed"};
  Cli cli(3, argv);
  ExperimentConfig config;
  cli.apply_run_scale(config);
  EXPECT_EQ(config.board_repr, policy::BoardRepr::kBucketed);

  const char* vec[] = {"bench", "--board-repr=vector"};
  ExperimentConfig config2;
  Cli(2, vec).apply_run_scale(config2);
  EXPECT_EQ(config2.board_repr, policy::BoardRepr::kVector);

  const char* bad[] = {"bench", "--board-repr", "linked-list"};
  ExperimentConfig config3;
  EXPECT_THROW(Cli(3, bad).apply_run_scale(config3), std::invalid_argument);
}

TEST(CliTest, BucketedBoardPlusFaultSpecIsAccepted) {
  // Faults run on the counted representation: the engine retires every
  // server a dispatcher believes down from its level index. The full spec
  // and the overlay fault flags both combine with --board-repr bucketed.
  const char* argv[] = {"bench", "--board-repr", "bucketed", "--fault-spec",
                        "crash=0.01,down=2,loss=0.1"};
  ExperimentConfig config;
  EXPECT_NO_THROW(Cli(5, argv).apply_run_scale(config));
  EXPECT_EQ(config.board_repr, policy::BoardRepr::kBucketed);
  EXPECT_TRUE(config.fault.any());
  EXPECT_TRUE(config.resolved_bucketed());
  config.num_jobs = 1'500;
  config.warmup_jobs = 300;
  const TrialResult result = run_trial(config, 5);
  EXPECT_TRUE(std::isfinite(result.mean_response));
  EXPECT_GT(result.faults.crashes, 0u);

  const char* overlay[] = {"bench", "--board-repr", "bucketed",
                           "--update-loss", "0.2"};
  config = ExperimentConfig{};
  EXPECT_NO_THROW(Cli(5, overlay).apply_run_scale(config));
  EXPECT_DOUBLE_EQ(config.fault.update_loss, 0.2);
  EXPECT_TRUE(config.resolved_bucketed());
}

TEST(CliTest, ChurnSpecFlagBuildsTheSpecAndExcludesCrashKeys) {
  const char* argv[] = {"bench", "--churn-spec",
                        "leave=0.01,rejoin=2,suspect=2T,evict=4T"};
  Cli cli(3, argv);
  ExperimentConfig config;
  cli.apply_run_scale(config);
  EXPECT_TRUE(config.churn.any());
  EXPECT_DOUBLE_EQ(config.churn.leave_rate, 0.01);
  EXPECT_DOUBLE_EQ(config.churn.rejoin_delay, 2.0);

  const char* bad[] = {"bench", "--churn-spec", "bogus=1"};
  ExperimentConfig config2;
  EXPECT_THROW(Cli(3, bad).apply_run_scale(config2), std::invalid_argument);

  // The churn spec owns the liveness process and the retry path, so the
  // fault spec's keys for them are refused by name...
  for (const char* key : {"crash=0.01", "down=2", "semantics=requeue",
                          "retries=5", "backoff=0.2"}) {
    const char* both[] = {"bench", "--churn-spec", "restart=30,restartdown=2",
                          "--fault-spec", key};
    ExperimentConfig config3;
    Cli(5, both).apply_run_scale(config3);
    config3.num_jobs = 1'000;
    config3.warmup_jobs = 200;
    const std::string name = std::string(key).substr(
        0, std::string(key).find('='));
    EXPECT_NE(rejection(config3).find("'" + name + "'"), std::string::npos)
        << key;
  }
  // ...and the crash-rate overlay flag trips the same check.
  const char* overlay[] = {"bench", "--churn-spec", "leave=0.01",
                           "--crash-rate", "0.01"};
  ExperimentConfig config4;
  Cli(5, overlay).apply_run_scale(config4);
  EXPECT_NE(rejection(config4).find("'crash'"), std::string::npos);

  // Degraded information combines with churn.
  const char* with_loss[] = {"bench", "--churn-spec", "leave=0.01",
                             "--fault-spec", "loss=0.1,delay=0.2,cutoff=2T"};
  ExperimentConfig config5;
  Cli(5, with_loss).apply_run_scale(config5);
  config5.num_jobs = 1'000;
  config5.warmup_jobs = 200;
  EXPECT_EQ(rejection(config5), "");
}

TEST(CliTest, DispatchersCombineWithFaultsAndEveryBoardModel) {
  const char* argv[] = {"bench", "--dispatchers", "3", "--fault-spec",
                        "crash=0.01,down=2,loss=0.1"};
  ExperimentConfig config;
  EXPECT_NO_THROW(Cli(5, argv).apply_run_scale(config));
  EXPECT_EQ(config.dispatchers, 3);
  EXPECT_TRUE(config.fault.any());
  config.num_servers = 6;
  config.num_jobs = 1'500;
  config.warmup_jobs = 300;
  for (const UpdateModel model :
       {UpdateModel::kPeriodic, UpdateModel::kIndividual,
        UpdateModel::kContinuous}) {
    config.model = model;
    const TrialResult result = run_trial(config, 5);
    EXPECT_TRUE(std::isfinite(result.mean_response))
        << update_model_name(model);
    EXPECT_GT(result.faults.crashes, 0u) << update_model_name(model);
  }
}

// The one rate-estimator grammar, through what the simulator knows (T, a
// told lambda, capacity n) and what the live dispatcher knows (only T):
// every number parses in full and is finite, and an error names the field
// that broke or the piece the caller lacks.
TEST(RateEstimatorSpecTest, ParsesOrNamesTheBadField) {
  const workload::RateEstimatorContext sim_context =
      rate_estimator_context(ExperimentConfig{});
  workload::RateEstimatorContext live_context;
  live_context.update_interval = 2.0;
  live_context.initial_rate = 1e-9;
  const auto context = [&](bool live) -> const auto& {
    return live ? live_context : sim_context;
  };

  const struct {
    const char* spec;
    bool live;
    const char* describe;  // nullptr: no estimator (the told rate)
  } valid[] = {{"told", false, nullptr},
               {"fixed", false, nullptr},
               {"conservative", false, "conservative"},
               {"cema", false, "cema"},
               {"cema:0.2", false, "cema"},
               {"cema:0.2:0.5", false, "cema"},
               {"ewma:50", false, "ewma"},
               {"windowed:100", false, "windowed"},
               {"fixed:2", false, "conservative(2)"},
               {"windowed", false, "windowed(w=4)"},
               {"fixed:2", true, "conservative(2)"},
               {"windowed", true, "windowed(w=8)"},
               {"cema", true, "cema(alpha 0.1, bucket 1, initial 1e-09)"},
               {"ewma:50", true, "ewma"}};
  for (const auto& row : valid) {
    const core::RateEstimatorPtr estimator =
        workload::make_rate_estimator(row.spec, context(row.live));
    if (row.describe == nullptr) {
      EXPECT_EQ(estimator, nullptr) << row.spec;
    } else {
      ASSERT_NE(estimator, nullptr) << row.spec;
      EXPECT_NE(estimator->describe().find(row.describe), std::string::npos)
          << row.spec << " -> " << estimator->describe();
    }
  }

  const struct {
    const char* spec;
    bool live;
    const char* message;  // must appear in the error
  } invalid[] = {{"cema:0.1x", false, "bad ALPHA '0.1x'"},
                 {"cema:abc", false, "bad ALPHA 'abc'"},
                 {"cema:", false, "bad ALPHA ''"},
                 {"cema:0.2:1e400", false, "bad BUCKET '1e400'"},
                 {"cema:0.2:0.5:1", false, "expected cema[:ALPHA[:BUCKET]]"},
                 {"windowed:nan", false, "bad W 'nan'"},
                 {"windowed:", false, "bad W ''"},
                 {"ewma:inf", false, "bad TAU 'inf'"},
                 {"ewma:5:6", false, "expected ewma:TAU"},
                 {"ewma", false, "expected ewma:TAU"},
                 {"conservative:2", false, "expected conservative"},
                 {"bogus:1", false, "unknown rate_estimator 'bogus:1'"},
                 {"fixed", true, "no configured arrival rate"},
                 {"told", true, "no configured arrival rate"},
                 {"conservative", true, "service capacity is not known"},
                 {"windowed:nan", true, "bad W 'nan'"},
                 {"fixed:inf", true, "bad RATE 'inf'"},
                 {"fixed:0", true, "RATE must be > 0"},
                 {"cema:1.5", true, "ALPHA must be in (0, 1)"}};
  for (const auto& row : invalid) {
    try {
      (void)workload::make_rate_estimator(row.spec, context(row.live));
      ADD_FAILURE() << row.spec << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(row.message), std::string::npos)
          << row.spec << ": " << error.what();
    }
  }
}

TEST(SweepTest, ProducesOneRowPerXValue) {
  ExperimentConfig base = small_config();
  base.num_jobs = 4'000;
  base.warmup_jobs = 1'000;
  base.trials = 2;
  std::ostringstream os;
  run_t_sweep(base, {1.0, 4.0}, {"random", "basic_li"}, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("T"), std::string::npos);
  EXPECT_NE(text.find("basic_li"), std::string::npos);
  EXPECT_NE(text.find("1.000"), std::string::npos);
  EXPECT_NE(text.find("4.000"), std::string::npos);
  // Header + rule + 2 data rows.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
}

TEST(SweepTest, BoxStatsCellsContainQuartiles) {
  ExperimentConfig base = small_config();
  base.num_jobs = 4'000;
  base.warmup_jobs = 1'000;
  base.trials = 3;
  std::ostringstream os;
  SweepOptions options;
  options.box_stats = true;
  run_t_sweep(base, {1.0}, {"random"}, os, options);
  EXPECT_NE(os.str().find("["), std::string::npos);
  EXPECT_NE(os.str().find(".."), std::string::npos);
}

TEST(DefaultTGridTest, RespectsCap) {
  const auto grid = default_t_grid(16.0);
  EXPECT_EQ(grid.front(), 0.1);
  EXPECT_EQ(grid.back(), 16.0);
  for (double t : grid) EXPECT_LE(t, 16.0);
  EXPECT_GT(default_t_grid(128.0).size(), grid.size());
}

TEST(UpdateModelNameTest, AllNamesDistinct) {
  EXPECT_EQ(update_model_name(UpdateModel::kPeriodic), "periodic");
  EXPECT_EQ(update_model_name(UpdateModel::kContinuous), "continuous");
  EXPECT_EQ(update_model_name(UpdateModel::kUpdateOnAccess),
            "update_on_access");
  EXPECT_EQ(update_model_name(UpdateModel::kIndividual), "individual");
}

}  // namespace
}  // namespace stale::driver
