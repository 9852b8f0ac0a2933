#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_injector.h"
#include "fault/fault_spec.h"
#include "loadinfo/continuous_view.h"
#include "loadinfo/delay_distribution.h"
#include "loadinfo/individual_board.h"
#include "loadinfo/periodic_board.h"
#include "loadinfo/refresh_faults.h"
#include "obs/trace_sink.h"
#include "queueing/cluster.h"
#include "sim/fifo.h"
#include "sim/rng.h"

namespace stale::loadinfo {
namespace {

TEST(DelayDistributionTest, ParseAndNameRoundTrip) {
  for (DelayKind kind :
       {DelayKind::kConstant, DelayKind::kUniformHalf, DelayKind::kUniformFull,
        DelayKind::kExponential}) {
    EXPECT_EQ(parse_delay_kind(delay_kind_name(kind)), kind);
  }
  EXPECT_THROW(parse_delay_kind("bogus"), std::invalid_argument);
}

TEST(DelayDistributionTest, AllKindsHaveMeanT) {
  const double t = 3.0;
  for (DelayKind kind :
       {DelayKind::kConstant, DelayKind::kUniformHalf, DelayKind::kUniformFull,
        DelayKind::kExponential}) {
    const auto dist = make_delay_distribution(kind, t);
    EXPECT_NEAR(dist->mean(), t, 1e-12) << delay_kind_name(kind);
  }
}

TEST(DelayDistributionTest, VarianceOrderingMatchesPaper) {
  const double t = 2.0;
  const double v_const =
      make_delay_distribution(DelayKind::kConstant, t)->variance();
  const double v_half =
      make_delay_distribution(DelayKind::kUniformHalf, t)->variance();
  const double v_full =
      make_delay_distribution(DelayKind::kUniformFull, t)->variance();
  const double v_exp =
      make_delay_distribution(DelayKind::kExponential, t)->variance();
  EXPECT_LT(v_const, v_half);
  EXPECT_LT(v_half, v_full);
  EXPECT_LT(v_full, v_exp);
}

TEST(PeriodicBoardTest, SnapshotFrozenWithinPhase) {
  queueing::Cluster cluster(2);
  PeriodicBoard board(2, 10.0);
  cluster.assign(1.0, 0, 100.0);
  board.sync(cluster, 2.0);
  EXPECT_EQ(board.loads(), (std::vector<int>{0, 0}));  // snapshot from t = 0
  EXPECT_DOUBLE_EQ(board.age(2.0), 2.0);
}

TEST(PeriodicBoardTest, RefreshesAtBoundary) {
  queueing::Cluster cluster(2);
  PeriodicBoard board(2, 10.0);
  cluster.assign(1.0, 0, 100.0);
  cluster.assign(2.0, 0, 100.0);
  board.sync(cluster, 10.5);
  EXPECT_EQ(board.loads(), (std::vector<int>{2, 0}));
  EXPECT_DOUBLE_EQ(board.phase_start(), 10.0);
  EXPECT_DOUBLE_EQ(board.age(10.5), 0.5);
}

TEST(PeriodicBoardTest, SkipsEmptyPhasesExactly) {
  queueing::Cluster cluster(1);
  PeriodicBoard board(1, 1.0);
  cluster.assign(0.5, 0, 0.2);  // departs at 0.7
  board.sync(cluster, 5.25);    // crosses boundaries 1..5
  EXPECT_EQ(board.loads()[0], 0);
  EXPECT_DOUBLE_EQ(board.phase_start(), 5.0);
}

TEST(PeriodicBoardTest, SnapshotTakenExactlyAtBoundary) {
  queueing::Cluster cluster(1);
  PeriodicBoard board(1, 10.0);
  cluster.assign(0.0, 0, 12.0);  // still in service at t = 10
  board.sync(cluster, 10.1);
  EXPECT_EQ(board.loads()[0], 1);
  // Next phase: the job departed at 12, before the t = 20 boundary.
  board.sync(cluster, 20.1);
  EXPECT_EQ(board.loads()[0], 0);
}

TEST(PeriodicBoardTest, VersionBumpsPerRefresh) {
  queueing::Cluster cluster(1);
  PeriodicBoard board(1, 1.0);
  const auto v0 = board.version();
  board.sync(cluster, 0.5);
  EXPECT_EQ(board.version(), v0);
  board.sync(cluster, 3.5);  // three boundaries crossed
  EXPECT_EQ(board.version(), v0 + 3);
}

TEST(PeriodicBoardTest, RejectsBadArgumentsAndBackwardTime) {
  EXPECT_THROW(PeriodicBoard(0, 1.0), std::invalid_argument);
  EXPECT_THROW(PeriodicBoard(1, 0.0), std::invalid_argument);
  queueing::Cluster cluster(1);
  PeriodicBoard board(1, 1.0);
  board.sync(cluster, 5.0);
  EXPECT_THROW(board.sync(cluster, 4.0), std::invalid_argument);
}

TEST(IndividualBoardTest, EntriesRefreshIndependently) {
  queueing::Cluster cluster(2);
  sim::Rng rng(1);
  IndividualBoard board(2, 10.0, rng);
  cluster.assign(0.1, 0, 100.0);
  cluster.assign(0.1, 1, 100.0);
  // After a full interval both entries must have refreshed at least once.
  board.sync(cluster, 10.0);
  EXPECT_EQ(board.loads(), (std::vector<int>{1, 1}));
  EXPECT_LE(board.mean_age(10.0), 10.0);
  EXPECT_GE(board.mean_age(10.0), 0.0);
}

TEST(IndividualBoardTest, AgesDifferAcrossEntries) {
  queueing::Cluster cluster(8);
  sim::Rng rng(2);
  IndividualBoard board(8, 5.0, rng);
  board.sync(cluster, 20.0);
  bool any_differ = false;
  for (int i = 1; i < 8; ++i) {
    if (board.entry_age(i, 20.0) != board.entry_age(0, 20.0)) {
      any_differ = true;
    }
  }
  EXPECT_TRUE(any_differ);
}

TEST(ContinuousViewTest, ConstantDelayReadsExactPast) {
  queueing::Cluster cluster(
      2, ContinuousView::history_window_for(DelayKind::kConstant, 2.0));
  ContinuousView view(DelayKind::kConstant, 2.0, /*know_actual_age=*/false);
  sim::Rng rng(3);
  cluster.assign(1.0, 0, 100.0);  // server 0 loaded from t = 1 on
  cluster.advance_to(2.5);
  view.observe(cluster, 2.5, rng);  // sees state at t = 0.5
  EXPECT_EQ(view.loads(), (std::vector<int>{0, 0}));
  cluster.advance_to(4.0);
  view.observe(cluster, 4.0, rng);  // sees state at t = 2.0
  EXPECT_EQ(view.loads(), (std::vector<int>{1, 0}));
}

TEST(ContinuousViewTest, ReportedAgeDependsOnKnowledgeMode) {
  const double mean_delay = 4.0;
  queueing::Cluster cluster(
      1, ContinuousView::history_window_for(DelayKind::kUniformFull,
                                            mean_delay));
  cluster.advance_to(100.0);

  ContinuousView average_only(DelayKind::kUniformFull, mean_delay, false);
  sim::Rng rng(4);
  average_only.observe(cluster, 100.0, rng);
  EXPECT_DOUBLE_EQ(average_only.reported_age(), mean_delay);

  ContinuousView knows(DelayKind::kUniformFull, mean_delay, true);
  sim::Rng rng2(5);
  bool saw_non_mean = false;
  for (int i = 0; i < 50; ++i) {
    knows.observe(cluster, 100.0, rng2);
    EXPECT_DOUBLE_EQ(knows.reported_age(), knows.actual_delay());
    if (knows.reported_age() != mean_delay) saw_non_mean = true;
  }
  EXPECT_TRUE(saw_non_mean);
}

TEST(ContinuousViewTest, EarlyRequestsClampDelayToTimeZero) {
  queueing::Cluster cluster(
      1, ContinuousView::history_window_for(DelayKind::kConstant, 10.0));
  ContinuousView view(DelayKind::kConstant, 10.0, true);
  sim::Rng rng(6);
  cluster.advance_to(3.0);
  view.observe(cluster, 3.0, rng);  // delay 10 clamped to 3
  EXPECT_DOUBLE_EQ(view.actual_delay(), 3.0);
}

TEST(ContinuousViewTest, VersionBumpsPerObservation) {
  queueing::Cluster cluster(
      1, ContinuousView::history_window_for(DelayKind::kConstant, 1.0));
  ContinuousView view(DelayKind::kConstant, 1.0, false);
  sim::Rng rng(7);
  const auto v0 = view.version();
  cluster.advance_to(1.0);
  view.observe(cluster, 1.0, rng);
  view.observe(cluster, 1.0, rng);
  EXPECT_EQ(view.version(), v0 + 2);
}

TEST(ContinuousViewTest, HistoryWindowCoversEachKind) {
  EXPECT_DOUBLE_EQ(
      ContinuousView::history_window_for(DelayKind::kConstant, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(
      ContinuousView::history_window_for(DelayKind::kUniformHalf, 2.0), 3.0);
  EXPECT_DOUBLE_EQ(
      ContinuousView::history_window_for(DelayKind::kUniformFull, 2.0), 4.0);
  EXPECT_GT(ContinuousView::history_window_for(DelayKind::kExponential, 2.0),
            20.0);
}

// ---------------------------------------------------------------------------
// IndividualBoard against the full-scan board it replaced. ScanBoard keeps
// the earlier algorithm verbatim: an O(n) argmin scan per heartbeat (the
// `<=` makes the highest index win a time tie) and an O(n) publish pass in
// ascending server index. Every observable of the heap board must match it.
// ---------------------------------------------------------------------------

class ScanBoard {
 public:
  ScanBoard(std::vector<double> offsets, double interval)
      : interval_(interval), next_refresh_(std::move(offsets)) {
    const std::size_t n = next_refresh_.size();
    snapshot_.assign(n, 0);
    last_refresh_.assign(n, 0.0);
    pending_.resize(n);
  }

  void sync(queueing::Cluster& cluster, double t, RefreshFaults* faults) {
    while (true) {
      int due = -1;
      double due_time = t;
      for (std::size_t i = 0; i < next_refresh_.size(); ++i) {
        if (next_refresh_[i] <= due_time) {
          due = static_cast<int>(i);
          due_time = next_refresh_[i];
        }
      }
      if (due < 0) break;
      const auto s = static_cast<std::size_t>(due);
      if (faults == nullptr || !faults->drop_refresh()) {
        cluster.advance_to(due_time);
        const double delay = faults == nullptr ? 0.0 : faults->refresh_delay();
        if (trace_ && delay > 0.0) {
          trace_->on_refresh_fault(
              due_time, obs::FaultTraceEvent::kRefreshDelayed, due);
        }
        const double publish = std::max(
            due_time + delay,
            pending_[s].empty() ? 0.0 : pending_[s].back().publish);
        pending_[s].push_back({publish, due_time, cluster.loads()[s]});
        max_pending_ = std::max(max_pending_, pending_[s].size());
      } else if (trace_) {
        trace_->on_refresh_fault(due_time,
                                 obs::FaultTraceEvent::kRefreshLost, due);
      }
      next_refresh_[s] = due_time + interval_;
    }
    for (std::size_t s = 0; s < pending_.size(); ++s) {
      while (!pending_[s].empty() && pending_[s].front().publish <= t) {
        snapshot_[s] = pending_[s].front().value;
        last_refresh_[s] = pending_[s].front().measured;
        const double publish = pending_[s].front().publish;
        pending_[s].pop_front();
        ++version_;
        if (track_levels_) {
          level_index_.update(static_cast<int>(s), snapshot_[s]);
        }
        if (trace_) {
          trace_->on_board_refresh(publish, last_refresh_[s], version_,
                                   snapshot_);
        }
      }
    }
  }

  const std::vector<int>& loads() const { return snapshot_; }
  double entry_age(int server, double t) const {
    return t - last_refresh_[static_cast<std::size_t>(server)];
  }
  double mean_age(double t) const {
    double total = 0.0;
    for (double last : last_refresh_) total += t - last;
    return total / static_cast<double>(last_refresh_.size());
  }
  std::uint64_t version() const { return version_; }
  double next_refresh_at() const {
    return *std::min_element(next_refresh_.begin(), next_refresh_.end());
  }
  void enable_level_index() {
    track_levels_ = true;
    level_index_.build(snapshot_);
  }
  const sim::LevelIndex& level_index() const { return level_index_; }
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }
  // Most heartbeats any one server has had measured but not yet published.
  std::size_t max_pending() const { return max_pending_; }

 private:
  struct PendingHeartbeat {
    double publish;
    double measured;
    int value;
  };

  double interval_;
  std::vector<double> next_refresh_;
  std::vector<double> last_refresh_;
  std::vector<int> snapshot_;
  std::vector<std::deque<PendingHeartbeat>> pending_;
  std::size_t max_pending_ = 0;
  std::uint64_t version_ = 1;
  bool track_levels_ = false;
  sim::LevelIndex level_index_;
  obs::TraceSink* trace_ = nullptr;
};

// Seeded loss and delay draws; two instances with one seed replay the same
// fault stream as long as both boards consume it in the same order.
class ScriptedFaults final : public RefreshFaults {
 public:
  ScriptedFaults(std::uint64_t seed, double loss, double delay_share,
                 double max_delay)
      : rng_(seed),
        loss_(loss),
        delay_share_(delay_share),
        max_delay_(max_delay) {}

  bool drop_refresh() override { return rng_.next_double() < loss_; }
  double refresh_delay() override {
    return rng_.next_double() < delay_share_
               ? rng_.next_double() * max_delay_
               : 0.0;
  }

 private:
  sim::Rng rng_;
  double loss_;
  double delay_share_;
  double max_delay_;
};

// Every board callback, in call order.
struct BoardEvent {
  int kind;  // 0: refresh, 1 + FaultTraceEvent: fault
  double time;
  double measured;
  std::uint64_t version;
  int server;
  std::vector<int> loads;

  bool operator==(const BoardEvent&) const = default;
};

class BoardRecorder final : public obs::TraceSink {
 public:
  void on_board_refresh(double published, double measured,
                        std::uint64_t version,
                        std::span<const int> loads) override {
    events.push_back({0, published, measured, version, -1,
                      std::vector<int>(loads.begin(), loads.end())});
  }
  void on_refresh_fault(double t, obs::FaultTraceEvent kind,
                        int server) override {
    events.push_back({1 + static_cast<int>(kind), t, 0.0, 0, server, {}});
  }

  std::vector<BoardEvent> events;
};

struct HeapScanCase {
  const char* name;
  bool tied_offsets;
  double loss;
  double delay_share;
  double max_delay;
  bool level_index;
};

void PrintTo(const HeapScanCase& c, std::ostream* os) { *os << c.name; }

class HeapVersusScanTest : public ::testing::TestWithParam<HeapScanCase> {};

TEST_P(HeapVersusScanTest, MatchesFullScanAfterEverySync) {
  const HeapScanCase param = GetParam();
  constexpr int kServers = 24;
  constexpr double kInterval = 1.0;
  sim::Rng rng(0x5CA7);
  std::vector<double> offsets(kServers);
  for (double& offset : offsets) {
    // Tied runs draw from four slots so most boundaries collide exactly
    // (offset + k * T stays tied for every k).
    offset = param.tied_offsets
                 ? 0.25 * static_cast<double>(rng.next_below(4))
                 : rng.next_double() * kInterval;
  }
  IndividualBoard heap(offsets, kInterval);
  ScanBoard scan(offsets, kInterval);
  queueing::Cluster heap_cluster(kServers);
  queueing::Cluster scan_cluster(kServers);
  ScriptedFaults heap_faults(11, param.loss, param.delay_share,
                             param.max_delay);
  ScriptedFaults scan_faults(11, param.loss, param.delay_share,
                             param.max_delay);
  const bool faulty = param.loss > 0.0 || param.delay_share > 0.0;
  BoardRecorder heap_events;
  BoardRecorder scan_events;
  heap.set_trace_sink(&heap_events);
  scan.set_trace_sink(&scan_events);
  if (param.level_index) {
    heap.enable_level_index();
    scan.enable_level_index();
  }

  double t = 0.0;
  for (int step = 0; step < 2000; ++step) {
    // Mostly sub-interval gaps, sometimes a multi-interval jump that makes
    // one sync take many heartbeats; tied runs also land on the boundaries.
    const std::uint64_t kind = rng.next_below(10);
    if (kind == 0) {
      t += 3.0 * rng.next_double();
    } else if (param.tied_offsets && kind == 1) {
      t = 0.25 * std::floor(t / 0.25 + 1.0);
    } else {
      t += 0.05 * rng.next_double();
    }
    heap.sync(heap_cluster, t, faulty ? &heap_faults : nullptr);
    scan.sync(scan_cluster, t, faulty ? &scan_faults : nullptr);

    ASSERT_EQ(heap.loads(), scan.loads()) << "step " << step;
    ASSERT_EQ(heap.version(), scan.version()) << "step " << step;
    ASSERT_EQ(heap.next_refresh_at(), scan.next_refresh_at())
        << "step " << step;
    ASSERT_EQ(heap.mean_age(t), scan.mean_age(t)) << "step " << step;
    for (int s = 0; s < kServers; ++s) {
      ASSERT_EQ(heap.entry_age(s, t), scan.entry_age(s, t))
          << "step " << step << " server " << s;
      if (param.level_index) {
        ASSERT_EQ(heap.level_index().level_of(s),
                  scan.level_index().level_of(s));
      }
    }
    if (param.level_index) {
      const auto heap_counts = heap.level_index().histogram().counts();
      const auto scan_counts = scan.level_index().histogram().counts();
      ASSERT_TRUE(std::equal(heap_counts.begin(), heap_counts.end(),
                             scan_counts.begin(), scan_counts.end()));
    }
    ASSERT_EQ(heap_events.events, scan_events.events) << "step " << step;

    // Drive the queues so the measurements carry information.
    const int server = static_cast<int>(rng.next_below(kServers));
    const double size = 2.0 * rng.next_double();
    heap_cluster.assign(t, server, size);
    scan_cluster.assign(t, server, size);
  }
  EXPECT_GT(heap.version(), 1000u);
  if (faulty) {
    EXPECT_FALSE(heap_events.events.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, HeapVersusScanTest,
    ::testing::Values(
        HeapScanCase{"RandomOffsets", false, 0.0, 0.0, 0.0, false},
        HeapScanCase{"TiedOffsets", true, 0.0, 0.0, 0.0, false},
        HeapScanCase{"DelayCarriesAcrossSyncs", false, 0.0, 0.5, 2.5, false},
        HeapScanCase{"TiedDelayed", true, 0.0, 0.5, 0.75, false},
        HeapScanCase{"LossDrops", false, 0.3, 0.0, 0.0, false},
        HeapScanCase{"LossAndDelay", true, 0.2, 0.4, 1.5, false},
        HeapScanCase{"LevelIndex", false, 0.1, 0.3, 1.0, true},
        HeapScanCase{"TiedLevelIndex", true, 0.0, 0.0, 0.0, true}),
    [](const ::testing::TestParamInfo<HeapScanCase>& info) {
      return std::string(info.param.name);
    });

TEST(IndividualBoardTest, DelayedHeartbeatsQueueAcrossRingGrowth) {
  // Exponential heartbeat delays of mean 2.5 T (the fault spec delay=2.5):
  // FIFO delivery holds every later heartbeat behind a long one, so a
  // server's undelivered queue outgrows its first ring while the front is
  // mid-ring. Every observable still matches the full-scan reference.
  constexpr int kServers = 16;
  constexpr double kInterval = 1.0;
  sim::Rng rng(0xD1A7);
  std::vector<double> offsets(kServers);
  for (double& offset : offsets) offset = rng.next_double() * kInterval;
  IndividualBoard board(offsets, kInterval);
  ScanBoard scan(offsets, kInterval);
  queueing::Cluster board_cluster(kServers);
  queueing::Cluster scan_cluster(kServers);
  const fault::FaultSpec spec = fault::FaultSpec::parse("delay=2.5");
  sim::Rng board_parent(7);
  sim::Rng scan_parent(7);
  fault::FaultInjector board_faults(spec, board_parent);
  fault::FaultInjector scan_faults(spec, scan_parent);

  double t = 0.0;
  for (int step = 0; step < 3000; ++step) {
    t += 0.1 * rng.next_double();
    board.sync(board_cluster, t, &board_faults);
    scan.sync(scan_cluster, t, &scan_faults);
    ASSERT_EQ(board.loads(), scan.loads()) << "step " << step;
    ASSERT_EQ(board.version(), scan.version()) << "step " << step;
    ASSERT_EQ(board.mean_age(t), scan.mean_age(t)) << "step " << step;
    for (int s = 0; s < kServers; ++s) {
      ASSERT_EQ(board.entry_age(s, t), scan.entry_age(s, t))
          << "step " << step << " server " << s;
    }
    const int server = static_cast<int>(rng.next_below(kServers));
    const double size = 2.0 * rng.next_double();
    board_cluster.assign(t, server, size);
    scan_cluster.assign(t, server, size);
  }
  EXPECT_GT(board_faults.stats().updates_delayed, 1000u);
  EXPECT_GT(scan.max_pending(), 2 * sim::Fifo<int>::kFirstCapacity);
}

TEST(IndividualBoardTest, TiedBoundariesMeasureHighestIndexFirst) {
  // Every heartbeat lost, so the fault trace lists the measurement order.
  queueing::Cluster cluster(5);
  IndividualBoard board({0.25, 0.25, 0.25, 0.5, 0.25}, 1.0);
  ScriptedFaults drop_all(1, /*loss=*/1.0, 0.0, 0.0);
  BoardRecorder recorder;
  board.set_trace_sink(&recorder);
  board.sync(cluster, 1.25, &drop_all);
  std::vector<int> order;
  for (const BoardEvent& e : recorder.events) order.push_back(e.server);
  EXPECT_EQ(order, (std::vector<int>{4, 2, 1, 0, 3, 4, 2, 1, 0}));
  EXPECT_EQ(board.next_refresh_at(), 1.5);
  EXPECT_EQ(board.version(), 1u);
}

TEST(IndividualBoardTest, RejectsBadOffsets) {
  EXPECT_THROW(IndividualBoard(std::vector<double>{}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(IndividualBoard(std::vector<double>{0.5, -0.1}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(IndividualBoard(std::vector<double>{0.5}, 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace stale::loadinfo
