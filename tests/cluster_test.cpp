#include "queueing/cluster.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "queueing/metrics.h"

namespace stale::queueing {
namespace {

TEST(ClusterTest, LoadsTrackAssignments) {
  Cluster cluster(3);
  cluster.assign(0.0, 0, 1.0);
  cluster.assign(0.0, 0, 1.0);
  cluster.assign(0.0, 2, 1.0);
  const auto loads = cluster.loads();
  EXPECT_EQ(loads[0], 2);
  EXPECT_EQ(loads[1], 0);
  EXPECT_EQ(loads[2], 1);
}

TEST(ClusterTest, AdvanceRetiresDepartures) {
  Cluster cluster(2);
  cluster.assign(0.0, 0, 1.0);
  cluster.assign(0.0, 1, 3.0);
  cluster.advance_to(2.0);
  EXPECT_EQ(cluster.loads()[0], 0);
  EXPECT_EQ(cluster.loads()[1], 1);
}

TEST(ClusterTest, AssignReturnsDepartureTime) {
  Cluster cluster(2);
  EXPECT_DOUBLE_EQ(cluster.assign(1.0, 0, 2.0), 3.0);
  EXPECT_DOUBLE_EQ(cluster.assign(1.5, 0, 2.0), 5.0);  // queued behind first
}

TEST(ClusterTest, RejectsBadServerIndex) {
  Cluster cluster(2);
  EXPECT_THROW(cluster.assign(0.0, -1, 1.0), std::out_of_range);
  EXPECT_THROW(cluster.assign(0.0, 2, 1.0), std::out_of_range);
}

TEST(ClusterTest, RejectsEmptyCluster) {
  EXPECT_THROW(Cluster(0), std::invalid_argument);
  EXPECT_THROW(Cluster(std::vector<double>{}, 0.0), std::invalid_argument);
}

TEST(ClusterTest, HeterogeneousRatesAffectDepartures) {
  Cluster cluster(std::vector<double>{1.0, 4.0}, 0.0);
  EXPECT_DOUBLE_EQ(cluster.assign(0.0, 0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(cluster.assign(0.0, 1, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(cluster.total_rate(), 5.0);
}

TEST(ClusterTest, LoadsAtReconstructsHistory) {
  Cluster cluster(2, 100.0);
  cluster.assign(1.0, 0, 5.0);
  cluster.assign(2.0, 1, 1.0);
  cluster.advance_to(10.0);
  std::vector<int> past;
  cluster.loads_at(0.5, past);
  EXPECT_EQ(past, (std::vector<int>{0, 0}));
  cluster.loads_at(2.5, past);
  EXPECT_EQ(past, (std::vector<int>{1, 1}));
  cluster.loads_at(4.0, past);
  EXPECT_EQ(past, (std::vector<int>{1, 0}));
  cluster.loads_at(7.0, past);
  EXPECT_EQ(past, (std::vector<int>{0, 0}));
}

TEST(ClusterTest, TotalRateCountsServers) {
  Cluster cluster(7);
  EXPECT_DOUBLE_EQ(cluster.total_rate(), 7.0);
  EXPECT_EQ(cluster.size(), 7);
}

TEST(ClusterTest, LevelHistogramTracksLoadsIncrementally) {
  Cluster cluster(3);
  EXPECT_EQ(cluster.level_histogram().count(0), 3);
  cluster.assign(0.0, 0, 1.0);
  cluster.assign(0.0, 0, 1.0);
  cluster.assign(0.0, 2, 3.0);
  EXPECT_EQ(cluster.level_histogram().count(0), 1);
  EXPECT_EQ(cluster.level_histogram().count(1), 1);
  EXPECT_EQ(cluster.level_histogram().count(2), 1);
  cluster.advance_to(2.5);  // both of server 0's unit jobs depart
  EXPECT_EQ(cluster.level_histogram().count(0), 2);
  EXPECT_EQ(cluster.level_histogram().count(1), 1);
  EXPECT_EQ(cluster.level_histogram().total(), 3);
}

// The departure heap is a pure evaluation strategy: the same assignment
// sequence must yield the departure times, loads and histogram of plain
// FifoServers that are all stepped to every observation instant.
TEST(ClusterTest, LazyAdvanceMatchesSweepExactly) {
  std::vector<FifoServer> reference(4);
  Cluster cluster(4);

  const struct {
    double t;
    int server;
    double size;
  } jobs[] = {{0.0, 0, 1.0},  {0.1, 1, 0.2}, {0.2, 0, 2.0}, {0.5, 2, 0.7},
              {0.9, 3, 1.5},  {1.0, 1, 0.1}, {1.7, 0, 0.3}, {2.0, 2, 2.0},
              {2.05, 3, 0.4}, {3.0, 0, 1.0}};
  const double checkpoints[] = {0.05, 0.45, 1.1, 1.9, 2.6, 3.5, 9.0};

  std::size_t next_job = 0;
  for (const double t : checkpoints) {
    while (next_job < std::size(jobs) && jobs[next_job].t <= t) {
      const auto& job = jobs[next_job++];
      const double expected =
          reference[static_cast<std::size_t>(job.server)].assign(job.t,
                                                                 job.size);
      EXPECT_EQ(cluster.assign(job.t, job.server, job.size), expected);
    }
    for (FifoServer& server : reference) server.advance_to(t);
    cluster.advance_to(t);
    std::vector<int> level_counts(16, 0);
    for (std::size_t s = 0; s < reference.size(); ++s) {
      EXPECT_EQ(cluster.loads()[s], reference[s].length())
          << "server " << s << " at t=" << t;
      ++level_counts[static_cast<std::size_t>(reference[s].length())];
    }
    for (int level = 0; level < 16; ++level) {
      EXPECT_EQ(cluster.level_histogram().count(level),
                level_counts[static_cast<std::size_t>(level)])
          << "level " << level << " at t=" << t;
    }
  }
}

// With a history window, a server the departure heap never touched trails
// the cluster clock; loads_at() must still answer for it (its queue held).
TEST(ClusterTest, LoadsAtCoversServersTheHeapSkipped) {
  Cluster cluster(3, /*history_window=*/10.0);
  cluster.enable_lazy_advance();  // a no-op, history window or not
  cluster.assign(0.0, 0, 1.0);
  cluster.assign(0.5, 1, 5.0);
  cluster.advance_to(2.0);  // retires server 0's job; servers 1, 2 skipped
  EXPECT_LT(cluster.server(1).advanced_time(), 2.0);
  std::vector<int> past;
  cluster.loads_at(1.5, past);
  EXPECT_EQ(past, (std::vector<int>{0, 1, 0}));
  cluster.loads_at(0.25, past);
  EXPECT_EQ(past, (std::vector<int>{1, 0, 0}));
  cluster.loads_at(2.0, past);
  EXPECT_EQ(past, (std::vector<int>{0, 1, 0}));
  EXPECT_THROW(cluster.loads_at(2.5, past), std::invalid_argument);
}

TEST(ResponseMetricsTest, DiscardsWarmupJobs) {
  ResponseMetrics metrics(2);
  metrics.record(100.0);
  metrics.record(100.0);
  metrics.record(3.0);
  metrics.record(5.0);
  EXPECT_EQ(metrics.total_jobs(), 4u);
  EXPECT_EQ(metrics.measured_jobs(), 2u);
  EXPECT_DOUBLE_EQ(metrics.mean_response(), 4.0);
}

TEST(ResponseMetricsTest, KeepsSamplesWhenAsked) {
  ResponseMetrics metrics(1, /*keep_samples=*/true);
  metrics.record(9.0);
  metrics.record(1.0);
  metrics.record(2.0);
  EXPECT_EQ(metrics.samples(), (std::vector<double>{1.0, 2.0}));
}

TEST(ResponseMetricsTest, NoSamplesByDefault) {
  ResponseMetrics metrics(0);
  metrics.record(1.0);
  EXPECT_TRUE(metrics.samples().empty());
}

}  // namespace
}  // namespace stale::queueing
