#include "queueing/fifo_server.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace stale::queueing {
namespace {

TEST(FifoServerTest, SingleJobDepartsAfterService) {
  FifoServer server;
  EXPECT_DOUBLE_EQ(server.assign(1.0, 2.5), 3.5);
  EXPECT_EQ(server.length(), 1);
  server.advance_to(3.5);
  EXPECT_EQ(server.length(), 0);
  EXPECT_EQ(server.completed_jobs(), 1u);
}

TEST(FifoServerTest, JobsQueueFifo) {
  FifoServer server;
  EXPECT_DOUBLE_EQ(server.assign(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(server.assign(0.1, 1.0), 2.0);  // waits behind job 1
  EXPECT_DOUBLE_EQ(server.assign(0.2, 1.0), 3.0);
  EXPECT_EQ(server.length(), 3);
  server.advance_to(2.5);
  EXPECT_EQ(server.length(), 1);
}

TEST(FifoServerTest, IdleGapResetsReadyTime) {
  FifoServer server;
  server.assign(0.0, 1.0);     // departs at 1
  server.advance_to(5.0);      // long idle gap
  EXPECT_DOUBLE_EQ(server.assign(5.0, 1.0), 6.0);
}

TEST(FifoServerTest, ServiceRateScalesServiceTime) {
  FifoServer server(2.0);
  EXPECT_DOUBLE_EQ(server.assign(0.0, 1.0), 0.5);
}

TEST(FifoServerTest, ReadyTimeTracksBacklog) {
  FifoServer server;
  EXPECT_DOUBLE_EQ(server.ready_time(0.0), 0.0);
  server.assign(0.0, 2.0);
  EXPECT_DOUBLE_EQ(server.ready_time(0.5), 2.0);
}

TEST(FifoServerTest, AdvanceBackwardsThrows) {
  FifoServer server;
  server.advance_to(2.0);
  EXPECT_THROW(server.advance_to(1.0), std::invalid_argument);
}

TEST(FifoServerTest, RejectsBadConstruction) {
  EXPECT_THROW(FifoServer(0.0), std::invalid_argument);
  EXPECT_THROW(FifoServer(-1.0), std::invalid_argument);
  EXPECT_THROW(FifoServer(1.0, -1.0), std::invalid_argument);
}

TEST(FifoServerTest, HistoryReconstructsPastLengths) {
  FifoServer server(1.0, 100.0);
  server.assign(1.0, 2.0);  // length 1 during [1, 3)
  server.assign(2.0, 2.0);  // length 2 during [2, 3), departs at 5
  server.advance_to(10.0);
  EXPECT_EQ(server.length_at(0.5), 0);
  EXPECT_EQ(server.length_at(1.0), 1);
  EXPECT_EQ(server.length_at(1.5), 1);
  EXPECT_EQ(server.length_at(2.5), 2);
  EXPECT_EQ(server.length_at(3.0), 1);  // first departure at exactly 3
  EXPECT_EQ(server.length_at(4.9), 1);
  EXPECT_EQ(server.length_at(5.0), 0);
  EXPECT_EQ(server.length_at(9.0), 0);
}

TEST(FifoServerTest, HistoryQueryAtCurrentTimeMatchesLength) {
  FifoServer server(1.0, 50.0);
  server.assign(0.0, 10.0);
  server.assign(1.0, 10.0);
  server.advance_to(5.0);
  EXPECT_EQ(server.length_at(5.0), server.length());
}

TEST(FifoServerTest, HistoryDisabledThrows) {
  FifoServer server;
  server.assign(0.0, 1.0);
  EXPECT_THROW(server.length_at(0.5), std::logic_error);
}

TEST(FifoServerTest, HistoryFutureQueryThrows) {
  FifoServer server(1.0, 10.0);
  server.advance_to(1.0);
  EXPECT_THROW(server.length_at(2.0), std::invalid_argument);
}

TEST(FifoServerTest, HistoryPruningKeepsWindowQueriesExact) {
  // Drive many jobs through, then query across the retained window; pruning
  // must never disturb results inside the window.
  // Dyadic times keep the arithmetic exact: job i arrives at 0.25 * (i+1)
  // and is served in 0.125, so the queue alternates 1 (during service) and 0.
  FifoServer server(1.0, 5.0);
  double t = 0.0;
  for (int i = 0; i < 2000; ++i) {
    t = 0.25 * (i + 1);
    server.assign(t, 0.125);
  }
  server.advance_to(t);
  EXPECT_EQ(server.length_at(t), server.length());
  EXPECT_EQ(server.length_at(t - 4.0), 1);       // == an arrival instant
  EXPECT_EQ(server.length_at(t - 4.0 + 0.0625), 1);  // mid-service
  EXPECT_EQ(server.length_at(t - 4.0 + 0.1875), 0);  // between jobs
}

TEST(FifoServerTest, BusyTimeSingleJob) {
  FifoServer server;
  server.assign(1.0, 2.0);  // busy [1, 3)
  server.advance_to(10.0);
  EXPECT_DOUBLE_EQ(server.busy_time(), 2.0);
}

TEST(FifoServerTest, BusyTimeMergesOverlappingJobs) {
  FifoServer server;
  server.assign(0.0, 1.0);   // busy [0,1)
  server.assign(0.5, 1.0);   // extends busy period to [0,2)
  server.advance_to(3.0);
  server.assign(3.0, 1.0);   // busy [3,4)
  server.advance_to(5.0);
  EXPECT_DOUBLE_EQ(server.busy_time(), 3.0);
}

TEST(FifoServerTest, BusyTimeIncludesOngoingWork) {
  FifoServer server;
  server.assign(0.0, 10.0);
  server.advance_to(4.0);
  EXPECT_DOUBLE_EQ(server.busy_time(), 4.0);
}

TEST(FifoServerTest, UtilizationApproachesOfferedLoad) {
  // Deterministic arrivals at rate 0.5, unit-mean service 0.5 => rho = 0.25.
  FifoServer server;
  double t = 0.0;
  for (int i = 0; i < 10000; ++i) {
    t += 2.0;
    server.assign(t, 0.5);
  }
  server.advance_to(t + 10.0);
  EXPECT_NEAR(server.busy_time() / server.advanced_time(), 0.25, 0.01);
}

TEST(FifoServerTest, CrashRequeueAcrossQueueGrowth) {
  // Twelve tagged jobs of sizes 1..12 behind one another: the queue's ring
  // grows twice (4 -> 8 -> 16). Three complete before the crash, so the
  // queue starts mid-ring when its nine survivors are displaced.
  FifoServer victim;
  victim.enable_job_tracking();
  for (std::uint64_t tag = 0; tag < 12; ++tag) {
    victim.assign_tagged(0.0, static_cast<double>(tag + 1), tag, -1.0 * tag);
  }
  ASSERT_EQ(victim.length(), 12);
  victim.advance_to(7.0);  // jobs 0..2 finish at 1, 3, 6
  ASSERT_EQ(victim.length(), 9);
  ASSERT_EQ(victim.completions().size(), 3u);
  EXPECT_EQ(victim.completions()[2].tag, 2u);
  EXPECT_DOUBLE_EQ(victim.completions()[2].response, 6.0 + 2.0);
  EXPECT_DOUBLE_EQ(victim.next_departure(), 10.0);
  EXPECT_DOUBLE_EQ(victim.last_pending_departure(), 78.0);

  std::vector<DisplacedJob> displaced;
  victim.crash(8.0, displaced);
  ASSERT_EQ(displaced.size(), 9u);
  for (std::size_t i = 0; i < displaced.size(); ++i) {
    const std::uint64_t tag = i + 3;  // FIFO order, survivors only
    EXPECT_EQ(displaced[i].tag, tag);
    EXPECT_DOUBLE_EQ(displaced[i].size, static_cast<double>(tag + 1));
    EXPECT_DOUBLE_EQ(displaced[i].born, -1.0 * static_cast<double>(tag));
  }
  EXPECT_EQ(victim.length(), 0);
  EXPECT_DOUBLE_EQ(victim.busy_time(), 8.0);

  // Requeue every survivor on a fresh server: its queue grows through the
  // same sizes and completes them in order with their original clocks.
  FifoServer rescuer;
  rescuer.enable_job_tracking();
  for (const DisplacedJob& job : displaced) {
    rescuer.assign_tagged(8.0, job.size, job.tag, job.born);
  }
  rescuer.advance_to(1000.0);
  ASSERT_EQ(rescuer.completions().size(), 9u);
  double finish = 8.0;
  for (std::size_t i = 0; i < 9; ++i) {
    const CompletedJob& done = rescuer.completions()[i];
    finish += displaced[i].size;
    EXPECT_EQ(done.tag, displaced[i].tag);
    EXPECT_DOUBLE_EQ(done.departure, finish);
    EXPECT_DOUBLE_EQ(done.response, finish - displaced[i].born);
  }

  // The crashed server comes back empty and queues from scratch.
  victim.recover(9.0);
  EXPECT_DOUBLE_EQ(victim.assign_tagged(9.0, 2.0, 99, 9.0), 11.0);
  EXPECT_EQ(victim.length(), 1);
}

TEST(FifoServerTest, CopyCarriesTheQueue) {
  FifoServer original;
  for (int i = 0; i < 6; ++i) original.assign(0.0, 1.0);
  original.advance_to(2.5);
  FifoServer copy = original;
  EXPECT_EQ(copy.length(), 4);
  EXPECT_DOUBLE_EQ(copy.next_departure(), 3.0);
  copy.advance_to(10.0);
  EXPECT_EQ(copy.length(), 0);
  EXPECT_EQ(original.length(), 4);
  EXPECT_EQ(copy.completed_jobs(), 6u);
}

}  // namespace
}  // namespace stale::queueing
