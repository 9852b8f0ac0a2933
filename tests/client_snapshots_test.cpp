// Update-on-access as an information model of the trial engine: the client
// snapshots (loadinfo::ClientSnapshots), the client arrival source
// (workload::ClientArrivals), and what the engine makes of the two.
#include "loadinfo/client_snapshots.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/experiment.h"
#include "driver/trial_workload.h"
#include "obs/trace_sink.h"
#include "queueing/cluster.h"
#include "sim/rng.h"
#include "workload/arrival_process.h"

namespace stale {
namespace {

using loadinfo::ClientSnapshots;
using workload::ClientArrivals;

driver::ExperimentConfig on_access_config() {
  driver::ExperimentConfig config;
  config.model = driver::UpdateModel::kUpdateOnAccess;
  config.num_servers = 4;
  config.lambda = 0.8;
  config.update_interval = 2.0;  // 6 clients
  config.num_jobs = 2'000;
  config.warmup_jobs = 500;
  config.trials = 1;
  return config;
}

// Records every dispatch decision the engine traces.
class DecisionLog final : public obs::TraceSink {
 public:
  void on_decision(double t, int, double age) override {
    times.push_back(t);
    ages.push_back(age);
  }
  std::vector<double> times;
  std::vector<double> ages;
};

// Loses every reply.
class LoseEveryReply final : public loadinfo::RefreshFaults {
 public:
  bool drop_refresh() override { return true; }
  double refresh_delay() override { return 0.0; }
};

TEST(UpdateOnAccessEngineTest, FirstSnapshotsAreEmptyCluster) {
  ClientSnapshots snapshots(2, 3);
  for (int client : {0, 1}) {
    snapshots.access(client);
    // Every first request carries the truthful time-zero snapshot.
    EXPECT_EQ(snapshots.loads(), (std::vector<int>{0, 0, 0}));
    EXPECT_EQ(snapshots.age(1.5), 1.5);
  }
}

TEST(UpdateOnAccessEngineTest, SnapshotReflectsPostDispatchLoads) {
  // A client's next request sees exactly the loads right after its previous
  // dispatch; another client's snapshot is untouched by that reply.
  queueing::Cluster cluster(2);
  ClientSnapshots snapshots(2, 2);
  snapshots.access(0);
  cluster.advance_to(0.5);
  cluster.assign(0.5, 1, 50.0);
  cluster.assign(0.5, 0, 50.0);
  cluster.assign(0.5, 1, 50.0);
  snapshots.reply(cluster, 0.5, nullptr);
  snapshots.access(1);
  EXPECT_EQ(snapshots.loads(), (std::vector<int>{0, 0}));
  snapshots.access(0);
  EXPECT_EQ(snapshots.loads(), (std::vector<int>{1, 2}));
  EXPECT_EQ(snapshots.age(2.0), 1.5);
}

TEST(UpdateOnAccessEngineTest, AgeEqualsGapBetweenRequests) {
  // One client (lambda * n * T = 0.4 rounds up to the minimum of one): each
  // decision's age is exactly the time since that client's previous request.
  driver::ExperimentConfig config = on_access_config();
  config.num_servers = 2;
  config.lambda = 0.2;
  config.update_interval = 1.0;
  config.num_jobs = 300;
  config.warmup_jobs = 0;
  DecisionLog log;
  config.trace_sink = &log;
  driver::run_trial(config, 3);
  ASSERT_EQ(log.times.size(), 300u);
  double previous = 0.0;
  for (std::size_t i = 0; i < log.times.size(); ++i) {
    ASSERT_EQ(log.ages[i], log.times[i] - previous) << i;
    previous = log.times[i];
  }
}

TEST(UpdateOnAccessEngineTest, ClientsInterleaveByTime) {
  ClientArrivals arrivals(5, std::make_unique<workload::PoissonProcess>(1.0));
  sim::Rng rng(4);
  std::vector<int> fired(5, 0);
  double previous = 0.0;
  int previous_client = -1;
  for (int i = 0; i < 500; ++i) {
    const double t = arrivals.next(rng);
    ASSERT_GE(t, previous);  // global dispatch order is by time
    if (t == previous) {
      ASSERT_GT(arrivals.client(), previous_client);
    }
    previous = t;
    previous_client = arrivals.client();
    ++fired[static_cast<std::size_t>(arrivals.client())];
  }
  EXPECT_EQ(arrivals.size(), 5);
  for (int count : fired) EXPECT_GT(count, 50);

  // The engine dispatches in the same global time order.
  driver::ExperimentConfig config = on_access_config();
  DecisionLog log;
  config.trace_sink = &log;
  driver::run_trial(config, 4);
  for (std::size_t i = 1; i < log.times.size(); ++i) {
    ASSERT_GE(log.times[i], log.times[i - 1]);
  }
}

TEST(UpdateOnAccessEngineTest, RecordsEveryResponse) {
  driver::ExperimentConfig config = on_access_config();
  config.num_jobs = 100;
  config.warmup_jobs = 10;
  const driver::TrialResult result = driver::run_trial(config, 5);
  EXPECT_EQ(result.total_jobs, 100u);
  EXPECT_EQ(result.measured_jobs, 90u);
  EXPECT_GT(result.mean_response, 0.0);
}

TEST(UpdateOnAccessEngineTest, RejectsZeroClients) {
  EXPECT_THROW(ClientSnapshots(0, 2), std::invalid_argument);
  EXPECT_THROW(ClientSnapshots(-1, 2), std::invalid_argument);
  // The engine sizes the population max(1, round(lambda * n * T)): a load
  // too light for one client still gets one.
  driver::ExperimentConfig config = on_access_config();
  config.lambda = 0.01;
  config.update_interval = 1.0;
  EXPECT_EQ(driver::make_trial_workload(config).clients->size(), 1);
}

TEST(ClientSnapshotsTest, EveryAccessGetsAFreshVersion) {
  // Policies share one instance and cache by version: a repeated version
  // would hand one client another client's interpretation.
  ClientSnapshots snapshots(2, 2);
  std::vector<std::uint64_t> versions;
  for (int client : {0, 0, 1, 0}) {
    snapshots.access(client);
    versions.push_back(snapshots.version());
  }
  EXPECT_EQ(versions, (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST(ClientSnapshotsTest, LostReplyKeepsTheOlderSnapshot) {
  queueing::Cluster cluster(2);
  ClientSnapshots snapshots(1, 2);
  snapshots.access(0);
  cluster.advance_to(1.0);
  cluster.assign(1.0, 0, 50.0);
  snapshots.reply(cluster, 1.0, nullptr);
  snapshots.access(0);
  cluster.advance_to(2.0);
  cluster.assign(2.0, 1, 50.0);
  LoseEveryReply lose;
  snapshots.reply(cluster, 2.0, &lose);
  snapshots.access(0);
  EXPECT_EQ(snapshots.loads(), (std::vector<int>{1, 0}));
  EXPECT_EQ(snapshots.age(3.0), 2.0);  // aged from the last reply that landed
}

TEST(ClientSnapshotsTest, LevelIndexFollowsTheAccessingClient) {
  queueing::Cluster cluster(3);
  ClientSnapshots snapshots(2, 3);
  snapshots.enable_level_index();
  snapshots.access(0);
  cluster.advance_to(1.0);
  cluster.assign(1.0, 2, 50.0);
  cluster.assign(1.0, 2, 50.0);
  snapshots.reply(cluster, 1.0, nullptr);
  snapshots.access(0);
  EXPECT_EQ(snapshots.level_index().level_of(2), 2);
  EXPECT_EQ(snapshots.level_index().level_of(0), 0);
  snapshots.access(1);
  EXPECT_EQ(snapshots.level_index().level_of(2), 0);
}

TEST(ClientArrivalsTest, DrawsFirstGapsInClientOrderThenOneGapPerRequest) {
  sim::Rng rng(9);
  sim::Rng expected_rng = rng;
  workload::PoissonProcess gaps(0.5);
  std::vector<double> first(3);
  for (double& gap : first) gap = gaps.next_gap(expected_rng);

  ClientArrivals arrivals(3, std::make_unique<workload::PoissonProcess>(0.5));
  const double t = arrivals.next(rng);
  std::size_t earliest = 0;
  for (std::size_t c = 1; c < first.size(); ++c) {
    if (first[c] < first[earliest]) earliest = c;
  }
  EXPECT_EQ(t, first[earliest]);
  EXPECT_EQ(arrivals.client(), static_cast<int>(earliest));

  // A caller draw between requests, then the firing client's next gap.
  EXPECT_EQ(rng.next_u64(), expected_rng.next_u64());
  const double again = t + gaps.next_gap(expected_rng);
  first[earliest] = again;
  std::size_t next = 0;
  for (std::size_t c = 1; c < first.size(); ++c) {
    if (first[c] < first[next]) next = c;
  }
  EXPECT_EQ(arrivals.next(rng), first[next]);
  EXPECT_EQ(arrivals.client(), static_cast<int>(next));
}

// Gaps from a three-value cycle, so clients keep landing on the same times.
class CyclingGaps final : public workload::ArrivalProcess {
 public:
  double next_gap(sim::Rng&) override { return 0.5 * (1 + next_++ % 3); }
  double mean_gap() const override { return 1.0; }
  std::string describe() const override { return "cycling"; }

 private:
  int next_ = 0;
};

TEST(ClientArrivalsTest, BreaksTimeTiesByClient) {
  // Against a linear scan over every client's pending time: requests come in
  // (time, client) order through many exact ties.
  constexpr int kClients = 9;
  ClientArrivals arrivals(kClients, std::make_unique<CyclingGaps>());
  CyclingGaps gaps;
  sim::Rng rng(1);
  std::vector<double> pending(kClients);
  for (double& when : pending) when = gaps.next_gap(rng);
  int ties = 0;
  double previous = -1.0;
  for (int i = 0; i < 2'000; ++i) {
    std::size_t first = 0;
    for (std::size_t c = 1; c < pending.size(); ++c) {
      if (pending[c] < pending[first]) first = c;
    }
    ASSERT_EQ(arrivals.next(rng), pending[first]) << i;
    ASSERT_EQ(arrivals.client(), static_cast<int>(first)) << i;
    if (pending[first] == previous) ++ties;
    previous = pending[first];
    pending[first] += gaps.next_gap(rng);
  }
  EXPECT_GT(ties, 1'000);
}

}  // namespace
}  // namespace stale
