// Bit-exact pin of the board-model trial engine: every TrialResult field of a
// fixed set of small configurations — each board model and representation,
// churn, every fault class, an online estimator, a non-Poisson arrival spec,
// and a few multi-dispatcher runs — compared against
// tests/golden/engine_parity.csv. Doubles are stored as hex floats, so a
// match is a match of every bit, not a tolerance. Any change to a draw, a
// tie-break or a summation order in the arrival loop fails here.
//
// To regenerate after an *intentional* change:
//   STALELOAD_REGEN_GOLDEN=1 ./build/tests/staleload_golden_tests
//       --gtest_filter='EngineParity*'
// and commit the diff with the change that caused it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "driver/experiment.h"

namespace stale::driver {
namespace {

struct ParityCase {
  std::string name;
  std::function<void(ExperimentConfig&)> configure;
};

ExperimentConfig base_config() {
  ExperimentConfig config;
  config.num_servers = 16;
  config.lambda = 0.85;
  config.update_interval = 2.0;
  config.policy = "basic_li";
  config.board_repr = policy::BoardRepr::kVector;
  config.num_jobs = 3'000;
  config.warmup_jobs = 600;
  config.trials = 1;
  config.keep_response_samples = true;
  return config;
}

constexpr const char* kCrash = "crash=0.01,down=4,semantics=requeue";
constexpr const char* kChurn =
    "restart=6,restartdown=1,leave=0.01,rejoin=2,slow=2,slowfactor=0.5,"
    "semantics=requeue";

const std::vector<ParityCase>& parity_cases() {
  using policy::BoardRepr;
  static const std::vector<ParityCase> kCases = {
      {"periodic_vector", [](ExperimentConfig&) {}},
      {"periodic_bucketed",
       [](ExperimentConfig& c) { c.board_repr = BoardRepr::kBucketed; }},
      {"individual_vector",
       [](ExperimentConfig& c) { c.model = UpdateModel::kIndividual; }},
      {"individual_bucketed",
       [](ExperimentConfig& c) {
         c.model = UpdateModel::kIndividual;
         c.board_repr = BoardRepr::kBucketed;
       }},
      {"continuous_vector",
       [](ExperimentConfig& c) { c.model = UpdateModel::kContinuous; }},
      {"continuous_bucketed",
       [](ExperimentConfig& c) {
         c.model = UpdateModel::kContinuous;
         c.board_repr = BoardRepr::kBucketed;
         c.delay_kind = loadinfo::DelayKind::kExponential;
         c.know_actual_age = true;
       }},
      {"periodic_vector_k_subset2",
       [](ExperimentConfig& c) { c.policy = "k_subset:2"; }},
      {"churn_periodic_vector",
       [](ExperimentConfig& c) { c.churn = health::ChurnSpec::parse(kChurn); }},
      {"churn_individual_bucketed",
       [](ExperimentConfig& c) {
         c.model = UpdateModel::kIndividual;
         c.board_repr = BoardRepr::kBucketed;
         c.churn = health::ChurnSpec::parse(kChurn);
       }},
      {"fault_crash_requeue",
       [](ExperimentConfig& c) { c.fault = fault::FaultSpec::parse(kCrash); }},
      {"fault_crash_lost_individual",
       [](ExperimentConfig& c) {
         c.model = UpdateModel::kIndividual;
         c.fault = fault::FaultSpec::parse("crash=0.01,down=4,semantics=lost");
       }},
      {"fault_update_loss",
       [](ExperimentConfig& c) {
         c.fault = fault::FaultSpec::parse("loss=0.3");
       }},
      {"fault_update_delay_individual",
       [](ExperimentConfig& c) {
         c.model = UpdateModel::kIndividual;
         c.fault = fault::FaultSpec::parse("loss=0.1,delay=0.7");
       }},
      {"fault_update_delay_periodic",
       [](ExperimentConfig& c) {
         c.fault = fault::FaultSpec::parse("delay=1.5");
       }},
      {"fault_max_staleness",
       [](ExperimentConfig& c) {
         c.fault =
             fault::FaultSpec::parse("loss=0.5,cutoff=1.5T,fallback=k_subset:2");
       }},
      {"fault_estimator_dropout",
       [](ExperimentConfig& c) {
         c.rate_estimator = "ewma:20";
         c.fault = fault::FaultSpec::parse("estdrop=0.4");
       }},
      {"fault_continuous_crash",
       [](ExperimentConfig& c) {
         c.model = UpdateModel::kContinuous;
         c.fault = fault::FaultSpec::parse(std::string(kCrash) + ",delay=0.5");
       }},
      {"estimator_cema", [](ExperimentConfig& c) { c.rate_estimator = "cema"; }},
      {"arrival_mmpp",
       [](ExperimentConfig& c) { c.arrival_spec = "mmpp:0.5:3:20:5"; }},
      {"multi_d3_periodic_bucketed",
       [](ExperimentConfig& c) {
         c.dispatchers = 3;
         c.board_repr = BoardRepr::kBucketed;
       }},
      {"multi_d3_churn_individual",
       [](ExperimentConfig& c) {
         c.dispatchers = 3;
         c.model = UpdateModel::kIndividual;
         c.churn = health::ChurnSpec::parse(kChurn);
       }},
      {"multi_jiq_d2", [](ExperimentConfig& c) {
         c.dispatchers = 2;
         c.policy = "jiq";
       }},
  };
  return kCases;
}

constexpr const char* kHeader =
    "case,seed,mean_response,p50,p90,p95,p99,measured_jobs,total_jobs,"
    "sim_end_time,queue_stddev,queue_max,queue_length,trace_wraps,crashes,"
    "recoveries,jobs_lost,jobs_requeued,dispatch_retries,jobs_dropped,"
    "updates_lost,updates_delayed,estimator_drops,stale_fallbacks,"
    "sanitizer_fixes";

std::string to_row(const std::string& name, std::uint64_t seed,
                   const TrialResult& r) {
  std::ostringstream out;
  out << std::hexfloat << name << ',' << seed << ',' << r.mean_response << ','
      << r.p50_response << ',' << r.p90_response << ',' << r.p95_response
      << ',' << r.p99_response << ',' << r.measured_jobs << ','
      << r.total_jobs << ',' << r.sim_end_time << ',' << r.mean_queue_stddev
      << ',' << r.mean_queue_max << ',' << r.mean_queue_length << ','
      << r.trace_wraps;
  const fault::FaultStats& f = r.faults;
  for (const std::uint64_t counter :
       {f.crashes, f.recoveries, f.jobs_lost, f.jobs_requeued,
        f.dispatch_retries, f.jobs_dropped, f.updates_lost, f.updates_delayed,
        f.estimator_drops, f.stale_fallbacks, f.sanitizer_fixes}) {
    out << ',' << counter;
  }
  return out.str();
}

std::vector<std::string> measured_rows() {
  std::vector<std::string> rows;
  for (const ParityCase& parity : parity_cases()) {
    ExperimentConfig config = base_config();
    parity.configure(config);
    for (const std::uint64_t seed : {1ull, 4242ull}) {
      rows.push_back(to_row(parity.name, seed, run_trial(config, seed)));
    }
  }
  return rows;
}

std::string golden_path() {
  return std::string(GOLDEN_DIR) + "/engine_parity.csv";
}

TEST(EngineParityTest, EveryTrialFieldMatchesTheGoldenBitForBit) {
  const std::vector<std::string> measured = measured_rows();
  if (std::getenv("STALELOAD_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path());
    out << kHeader << '\n';
    for (const std::string& row : measured) out << row << '\n';
    GTEST_SKIP() << "regenerated " << golden_path();
  }
  std::ifstream in(golden_path());
  std::string line;
  ASSERT_TRUE(std::getline(in, line)) << "missing " << golden_path();
  ASSERT_EQ(line, kHeader);
  std::vector<std::string> golden;
  while (std::getline(in, line)) {
    if (!line.empty()) golden.push_back(line);
  }
  ASSERT_EQ(golden.size(), measured.size()) << "case list changed";
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(measured[i], golden[i]) << "row " << i;
  }
}

}  // namespace
}  // namespace stale::driver
