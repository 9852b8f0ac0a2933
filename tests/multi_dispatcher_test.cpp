// Multi-dispatcher scale-out layer (src/dispatch/) and its trial engine:
// JIQ spec parsing, arrival splitting, TokenDirectory lifecycle properties
// (conservation: offered == claimed + invalidated + queued, never a dangling
// token), config validation for the new knobs, and runs of every model and
// fault class at D > 1. (The engine's bit-exact pin, D = 1 included, is
// tests/engine_parity_test.cpp.)
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "dispatch/dispatcher_set.h"
#include "dispatch/jiq.h"
#include "driver/experiment.h"
#include "obs/trace_sink.h"
#include "queueing/load_stats.h"
#include "sim/rng.h"

namespace {

using stale::dispatch::ArrivalSplitter;
using stale::dispatch::DispatcherSplit;
using stale::dispatch::JiqInsertion;
using stale::dispatch::JiqSpec;
using stale::dispatch::TokenDirectory;
using stale::driver::ExperimentConfig;
using stale::driver::TrialResult;
using stale::driver::UpdateModel;

// --- JIQ spec parsing -----------------------------------------------------

TEST(JiqSpecTest, RecognizesJiqFamily) {
  EXPECT_TRUE(stale::dispatch::is_jiq_spec("jiq"));
  EXPECT_TRUE(stale::dispatch::is_jiq_spec("jiq:sq"));
  EXPECT_TRUE(stale::dispatch::is_jiq_spec("jiq:sq:3"));
  EXPECT_FALSE(stale::dispatch::is_jiq_spec("basic_li"));
  EXPECT_FALSE(stale::dispatch::is_jiq_spec("jiqx"));
  EXPECT_FALSE(stale::dispatch::is_jiq_spec(""));
}

TEST(JiqSpecTest, ParsesInsertionVariants) {
  EXPECT_EQ(stale::dispatch::parse_jiq_spec("jiq").insertion,
            JiqInsertion::kRandom);
  const JiqSpec sq = stale::dispatch::parse_jiq_spec("jiq:sq");
  EXPECT_EQ(sq.insertion, JiqInsertion::kShortestQueue);
  EXPECT_EQ(sq.sq_sample, 2);
  EXPECT_EQ(stale::dispatch::parse_jiq_spec("jiq:sq:5").sq_sample, 5);
}

TEST(JiqSpecTest, RoundTripsThroughToString) {
  // The last row is a 10-digit sample count (JIQ specs hold no reals).
  for (const char* spec :
       {"jiq", "jiq:sq:2", "jiq:sq:7", "jiq:sq:1234567891"}) {
    EXPECT_EQ(stale::dispatch::parse_jiq_spec(spec).to_string(), spec);
  }
}

TEST(JiqSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(stale::dispatch::parse_jiq_spec("jiq:sq:0"),
               std::invalid_argument);
  EXPECT_THROW(stale::dispatch::parse_jiq_spec("jiq:sq:x"),
               std::invalid_argument);
  EXPECT_THROW(stale::dispatch::parse_jiq_spec("jiq:bogus"),
               std::invalid_argument);
  EXPECT_THROW(stale::dispatch::parse_jiq_spec("basic_li"),
               std::invalid_argument);
}

// --- Dispatcher split parsing + ArrivalSplitter ---------------------------

TEST(DispatcherSplitTest, ParsesAndNames) {
  EXPECT_EQ(stale::dispatch::parse_dispatcher_split("uniform"),
            DispatcherSplit::kUniform);
  EXPECT_EQ(stale::dispatch::parse_dispatcher_split("weighted"),
            DispatcherSplit::kWeighted);
  EXPECT_EQ(stale::dispatch::dispatcher_split_name(DispatcherSplit::kUniform),
            "uniform");
  EXPECT_EQ(stale::dispatch::dispatcher_split_name(DispatcherSplit::kWeighted),
            "weighted");
  EXPECT_THROW(stale::dispatch::parse_dispatcher_split("roundrobin"),
               std::invalid_argument);
}

TEST(ArrivalSplitterTest, SingleDispatcherDrawsNothing) {
  // The D == 1 no-draw contract is what keeps one-dispatcher runs on the
  // single-dispatcher draw sequence: compare the RNG stream against an
  // untouched twin after a batch of picks.
  ArrivalSplitter splitter(1, DispatcherSplit::kUniform);
  stale::sim::Rng used(42);
  stale::sim::Rng untouched(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(splitter.pick(used), 0);
  }
  EXPECT_EQ(used.next_u64(), untouched.next_u64());
}

TEST(ArrivalSplitterTest, SharesSumToOne) {
  for (const DispatcherSplit split :
       {DispatcherSplit::kUniform, DispatcherSplit::kWeighted}) {
    ArrivalSplitter splitter(5, split);
    double total = 0.0;
    for (int d = 0; d < 5; ++d) total += splitter.share(d);
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(ArrivalSplitterTest, WeightedSharesAreALinearRamp) {
  ArrivalSplitter splitter(4, DispatcherSplit::kWeighted);
  // Weights 1:2:3:4 over sum 10.
  EXPECT_NEAR(splitter.share(0), 0.1, 1e-12);
  EXPECT_NEAR(splitter.share(1), 0.2, 1e-12);
  EXPECT_NEAR(splitter.share(2), 0.3, 1e-12);
  EXPECT_NEAR(splitter.share(3), 0.4, 1e-12);
}

TEST(ArrivalSplitterTest, EmpiricalFrequenciesMatchShares) {
  for (const DispatcherSplit split :
       {DispatcherSplit::kUniform, DispatcherSplit::kWeighted}) {
    const int kDispatchers = 3;
    const int kDraws = 60'000;
    ArrivalSplitter splitter(kDispatchers, split);
    stale::sim::Rng rng(7);
    std::vector<int> counts(kDispatchers, 0);
    for (int i = 0; i < kDraws; ++i) {
      const int d = splitter.pick(rng);
      ASSERT_GE(d, 0);
      ASSERT_LT(d, kDispatchers);
      ++counts[static_cast<std::size_t>(d)];
    }
    for (int d = 0; d < kDispatchers; ++d) {
      const double freq = static_cast<double>(counts[d]) / kDraws;
      EXPECT_NEAR(freq, splitter.share(d), 0.01)
          << "split " << stale::dispatch::dispatcher_split_name(split)
          << " dispatcher " << d;
    }
  }
}

// --- TokenDirectory properties --------------------------------------------

TEST(TokenDirectoryTest, OfferClaimIsFifoPerDispatcher) {
  TokenDirectory directory(/*num_servers=*/4, /*num_dispatchers=*/1);
  const JiqSpec spec;  // random insertion; D = 1 so target is forced
  stale::sim::Rng rng(1);
  EXPECT_EQ(directory.offer(2, spec, rng), 0);
  EXPECT_EQ(directory.offer(0, spec, rng), 0);
  EXPECT_EQ(directory.offer(3, spec, rng), 0);
  EXPECT_EQ(directory.queued(0), 3);
  EXPECT_EQ(directory.claim(0), 2);
  EXPECT_EQ(directory.claim(0), 0);
  EXPECT_EQ(directory.claim(0), 3);
  EXPECT_EQ(directory.claim(0), -1);
  directory.audit("fifo");
}

TEST(TokenDirectoryTest, AtMostOneTokenPerServer) {
  TokenDirectory directory(2, 2);
  const JiqSpec spec;
  stale::sim::Rng rng(1);
  EXPECT_GE(directory.offer(0, spec, rng), 0);
  EXPECT_TRUE(directory.has_token(0));
  // A second offer while the first token is live is refused, not queued.
  EXPECT_EQ(directory.offer(0, spec, rng), -1);
  EXPECT_EQ(directory.total_queued(), 1);
  directory.audit("single-token");
}

TEST(TokenDirectoryTest, InvalidateRetiresWhereverQueued) {
  TokenDirectory directory(4, 3);
  const JiqSpec spec;
  stale::sim::Rng rng(9);
  for (int s = 0; s < 4; ++s) ASSERT_GE(directory.offer(s, spec, rng), 0);
  const int holder = directory.holder(1);
  ASSERT_GE(holder, 0);
  directory.invalidate(1);
  EXPECT_FALSE(directory.has_token(1));
  EXPECT_EQ(directory.total_queued(), 3);
  // The stale deque entry is skipped lazily: draining the holder's queue
  // never yields server 1.
  int server = -1;
  while ((server = directory.claim(holder)) >= 0) {
    EXPECT_NE(server, 1);
  }
  directory.audit("invalidate");
  EXPECT_EQ(directory.offered(),
            directory.claimed() + directory.invalidated() +
                static_cast<std::uint64_t>(directory.total_queued()));
}

TEST(TokenDirectoryTest, ReofferAfterInvalidateUsesFreshEpoch) {
  TokenDirectory directory(1, 1);
  const JiqSpec spec;
  stale::sim::Rng rng(3);
  ASSERT_EQ(directory.offer(0, spec, rng), 0);
  directory.invalidate(0);
  // Re-offer queues a second entry behind the stale one; claim must skip the
  // dead epoch and return the live token exactly once.
  ASSERT_EQ(directory.offer(0, spec, rng), 0);
  EXPECT_EQ(directory.claim(0), 0);
  EXPECT_EQ(directory.claim(0), -1);
  directory.audit("epoch");
}

TEST(TokenDirectoryTest, BudgetDropsExcessTokens) {
  TokenDirectory directory(/*num_servers=*/8, /*num_dispatchers=*/1,
                           /*token_budget=*/2);
  const JiqSpec spec;
  stale::sim::Rng rng(5);
  EXPECT_GE(directory.offer(0, spec, rng), 0);
  EXPECT_GE(directory.offer(1, spec, rng), 0);
  EXPECT_EQ(directory.offer(2, spec, rng), -1);  // over budget: dropped
  EXPECT_EQ(directory.dropped(), 1u);
  EXPECT_FALSE(directory.has_token(2));
  EXPECT_EQ(directory.total_queued(), 2);
  // Claiming frees budget for the next offer.
  EXPECT_EQ(directory.claim(0), 0);
  EXPECT_GE(directory.offer(2, spec, rng), 0);
  directory.audit("budget");
}

TEST(TokenDirectoryTest, ConservationHoldsUnderRandomOperations) {
  TokenDirectory directory(/*num_servers=*/16, /*num_dispatchers=*/4,
                           /*token_budget=*/3);
  JiqSpec sq;
  sq.insertion = JiqInsertion::kShortestQueue;
  sq.sq_sample = 2;
  stale::sim::Rng rng(1234);
  for (int step = 0; step < 20'000; ++step) {
    const int op = static_cast<int>(rng.next_below(3));
    if (op == 0) {
      directory.offer(static_cast<int>(rng.next_below(16)), sq, rng);
    } else if (op == 1) {
      directory.claim(static_cast<int>(rng.next_below(4)));
    } else {
      directory.invalidate(static_cast<int>(rng.next_below(16)));
    }
    ASSERT_EQ(directory.offered(),
              directory.claimed() + directory.invalidated() +
                  static_cast<std::uint64_t>(directory.total_queued()))
        << "step " << step;
  }
  directory.audit("random-ops");
}

// --- Config validation ----------------------------------------------------

ExperimentConfig small_config() {
  ExperimentConfig config;
  config.num_servers = 8;
  config.lambda = 0.8;
  config.model = UpdateModel::kPeriodic;
  config.update_interval = 2.0;
  config.policy = "basic_li";
  config.num_jobs = 2'000;
  config.warmup_jobs = 500;
  config.trials = 1;
  return config;
}

TEST(MultiDispatcherConfigTest, RejectsNonBoardModels) {
  // update_on_access's client population is its dispatcher set: there are
  // no dispatchers to multiply.
  ExperimentConfig config = small_config();
  config.model = UpdateModel::kUpdateOnAccess;
  config.dispatchers = 2;
  EXPECT_THROW(stale::driver::run_trial(config, 1), std::invalid_argument);
}

TEST(MultiDispatcherRunTest, JiqRunsUnderUpdateOnAccess) {
  // JIQ reads idle tokens, not boards, so the client snapshots go unread.
  ExperimentConfig config = small_config();
  config.model = UpdateModel::kUpdateOnAccess;
  config.policy = "jiq";
  const TrialResult result = stale::driver::run_trial(config, 3);
  EXPECT_TRUE(std::isfinite(result.mean_response));
  EXPECT_GT(result.mean_response, 0.0);
  EXPECT_EQ(result.measured_jobs, config.num_jobs - config.warmup_jobs);
}

TEST(MultiDispatcherConfigTest, RejectsBadKnobValues) {
  ExperimentConfig config = small_config();
  config.dispatchers = 0;
  EXPECT_THROW(stale::driver::run_trial(config, 1), std::invalid_argument);
  config.dispatchers = 1;
  config.jiq_token_budget = -1;
  EXPECT_THROW(stale::driver::run_trial(config, 1), std::invalid_argument);
}

void expect_trials_identical(const TrialResult& a, const TrialResult& b) {
  EXPECT_EQ(a.mean_response, b.mean_response);
  EXPECT_EQ(a.measured_jobs, b.measured_jobs);
  EXPECT_EQ(a.total_jobs, b.total_jobs);
  EXPECT_EQ(a.sim_end_time, b.sim_end_time);
  EXPECT_EQ(a.mean_queue_stddev, b.mean_queue_stddev);
  EXPECT_EQ(a.mean_queue_max, b.mean_queue_max);
  EXPECT_EQ(a.mean_queue_length, b.mean_queue_length);
}

// --- Imbalance sampling ---------------------------------------------------

// Rebuilds the true queue-length vector from the cluster's trace events and
// feeds it, at every measured arrival, to the vector overload of
// LoadImbalanceStats: the formula the engine's histogram sampling must
// reproduce bit for bit. The engine samples after retiring departures up to
// the arrival and before dispatching it, so a snapshot is taken at the first
// event past that point: the arrival's own dispatch, a later departure, a
// crash, or the next decision. It also counts the lost refreshes (lost
// replies under update-on-access) the trace reports.
class LoadMirror final : public stale::obs::TraceSink {
 public:
  LoadMirror(int servers, std::uint64_t warmup)
      : loads_(static_cast<std::size_t>(servers), 0), warmup_(warmup) {}

  void on_dispatch(double, int server, double, int queue_len_after,
                   double) override {
    take_pending();
    loads_[static_cast<std::size_t>(server)] = queue_len_after;
  }
  void on_departure(double t, int server, int queue_len_after) override {
    if (t > pending_at_) take_pending();
    loads_[static_cast<std::size_t>(server)] = queue_len_after;
  }
  void on_server_down(double, int server, int) override {
    take_pending();
    loads_[static_cast<std::size_t>(server)] = 0;  // a down server reads 0
  }
  void on_decision(double t, int, double) override {
    take_pending();
    if (decisions_++ >= warmup_) {
      pending_ = true;
      pending_at_ = t;
    }
  }
  void on_refresh_fault(double, stale::obs::FaultTraceEvent kind,
                        int) override {
    if (kind == stale::obs::FaultTraceEvent::kRefreshLost) ++refreshes_lost_;
  }
  std::uint64_t refreshes_lost() const { return refreshes_lost_; }

  const stale::queueing::LoadImbalanceStats& finish() {
    take_pending();
    return stats_;
  }

 private:
  void take_pending() {
    if (!pending_) return;
    stats_.observe(loads_);
    pending_ = false;
  }

  std::vector<int> loads_;
  std::uint64_t warmup_;
  std::uint64_t decisions_ = 0;
  std::uint64_t refreshes_lost_ = 0;
  bool pending_ = false;
  double pending_at_ = 0.0;
  stale::queueing::LoadImbalanceStats stats_;
};

void expect_imbalance_matches_vector_formula(ExperimentConfig config,
                                             std::uint64_t seed) {
  LoadMirror mirror(config.num_servers, config.warmup_jobs);
  config.trace_sink = &mirror;
  const TrialResult result = stale::driver::run_trial(config, seed);
  const stale::queueing::LoadImbalanceStats& expected = mirror.finish();
  if (config.fault.any() || config.churn.any()) {
    EXPECT_GT(result.faults.crashes, 0u);
  }
  EXPECT_EQ(mirror.refreshes_lost(), result.faults.updates_lost);
  EXPECT_EQ(expected.snapshots(), config.num_jobs - config.warmup_jobs);
  EXPECT_EQ(result.mean_queue_stddev, expected.mean_within_snapshot_stddev());
  EXPECT_EQ(result.mean_queue_max, expected.mean_snapshot_max());
  EXPECT_EQ(result.mean_queue_length, expected.mean_queue_length());
}

TEST(EngineImbalanceTest, ChurnMatchesVectorFormula) {
  for (const stale::policy::BoardRepr repr :
       {stale::policy::BoardRepr::kVector,
        stale::policy::BoardRepr::kBucketed}) {
    SCOPED_TRACE(repr == stale::policy::BoardRepr::kVector ? "vector"
                                                           : "bucketed");
    ExperimentConfig config = small_config();
    config.num_servers = 24;
    config.lambda = 0.9;
    config.board_repr = repr;
    config.churn = stale::health::ChurnSpec::parse(
        "restart=6,restartdown=2,leave=0.02,rejoin=3,semantics=requeue");
    expect_imbalance_matches_vector_formula(config, 31);
    config.dispatchers = 2;
    config.model = UpdateModel::kIndividual;
    expect_imbalance_matches_vector_formula(config, 32);
  }
}

TEST(EngineImbalanceTest, CrashFaultsMatchVectorFormula) {
  ExperimentConfig config = small_config();
  config.num_servers = 16;
  config.fault = stale::fault::FaultSpec::parse(
      "crash=0.02,down=4,semantics=lost,loss=0.2,delay=0.5");
  expect_imbalance_matches_vector_formula(config, 5);
}

TEST(EngineImbalanceTest, UpdateOnAccessMatchesVectorFormula) {
  ExperimentConfig config = small_config();
  config.model = UpdateModel::kUpdateOnAccess;
  config.num_servers = 16;
  config.lambda = 0.9;
  expect_imbalance_matches_vector_formula(config, 7);
  config.fault = stale::fault::FaultSpec::parse(
      "crash=0.02,down=4,semantics=requeue,loss=0.3");
  expect_imbalance_matches_vector_formula(config, 8);  // traces lost replies
}

// --- Multi-dispatcher runs ------------------------------------------------

TEST(MultiDispatcherRunTest, JiqRunsOnBothRepresentations) {
  for (const stale::policy::BoardRepr repr :
       {stale::policy::BoardRepr::kVector,
        stale::policy::BoardRepr::kBucketed}) {
    ExperimentConfig config = small_config();
    config.policy = "jiq";
    config.dispatchers = 4;
    config.board_repr = repr;
    if (repr == stale::policy::BoardRepr::kBucketed) config.num_servers = 64;
    const TrialResult result = stale::driver::run_trial(config, 11);
    EXPECT_TRUE(std::isfinite(result.mean_response));
    EXPECT_GT(result.mean_response, 0.0);
    EXPECT_EQ(result.total_jobs, config.num_jobs);
    EXPECT_EQ(result.measured_jobs, config.num_jobs - config.warmup_jobs);
  }
}

TEST(MultiDispatcherRunTest, JiqSqAndTokenBudgetRun) {
  ExperimentConfig config = small_config();
  config.policy = "jiq:sq:2";
  config.dispatchers = 3;
  config.jiq_token_budget = 2;
  const TrialResult result = stale::driver::run_trial(config, 5);
  EXPECT_TRUE(std::isfinite(result.mean_response));
  EXPECT_GT(result.mean_response, 0.0);
}

TEST(MultiDispatcherRunTest, FaultInjectionRuns) {
  ExperimentConfig config = small_config();
  config.dispatchers = 2;
  config.fault = stale::fault::FaultSpec::parse("crash=0.01,down=5,loss=0.2");
  const TrialResult result = stale::driver::run_trial(config, 1);
  EXPECT_TRUE(std::isfinite(result.mean_response));
  EXPECT_GT(result.mean_response, 0.0);
  EXPECT_GT(result.faults.crashes, 0u);
  EXPECT_GT(result.faults.updates_lost, 0u);
}

TEST(MultiDispatcherRunTest, ContinuousModelRuns) {
  ExperimentConfig config = small_config();
  config.dispatchers = 2;
  config.model = UpdateModel::kContinuous;
  const TrialResult result = stale::driver::run_trial(config, 1);
  EXPECT_TRUE(std::isfinite(result.mean_response));
  EXPECT_GT(result.mean_response, 0.0);
  EXPECT_EQ(result.measured_jobs, config.num_jobs - config.warmup_jobs);
  // Each dispatcher samples its own delays: D = 2 is a different run.
  config.dispatchers = 1;
  EXPECT_NE(stale::driver::run_trial(config, 1).mean_response,
            result.mean_response);
}

TEST(MultiDispatcherRunTest, JiqWithCrashesRuns) {
  ExperimentConfig config = small_config();
  config.policy = "jiq";
  config.dispatchers = 3;
  config.fault = stale::fault::FaultSpec::parse(
      "crash=0.02,down=5,semantics=requeue");
  const TrialResult result = stale::driver::run_trial(config, 3);
  EXPECT_TRUE(std::isfinite(result.mean_response));
  EXPECT_GT(result.faults.crashes, 0u);
  EXPECT_EQ(result.total_jobs, config.num_jobs);
}

TEST(MultiDispatcherRunTest, WeightedSplitRunsAndDiffersFromUniform) {
  ExperimentConfig config = small_config();
  config.dispatchers = 4;
  const TrialResult uniform = stale::driver::run_trial(config, 17);
  config.dispatcher_split = stale::dispatch::DispatcherSplit::kWeighted;
  const TrialResult weighted = stale::driver::run_trial(config, 17);
  EXPECT_TRUE(std::isfinite(weighted.mean_response));
  // Different thinning, same seed: the runs must actually diverge.
  EXPECT_NE(uniform.mean_response, weighted.mean_response);
}

TEST(MultiDispatcherRunTest, DeterministicForFixedSeed) {
  ExperimentConfig config = small_config();
  config.policy = "jiq";
  config.dispatchers = 4;
  const TrialResult a = stale::driver::run_trial(config, 23);
  const TrialResult b = stale::driver::run_trial(config, 23);
  expect_trials_identical(a, b);
}

}  // namespace
