// Individual-update board (extension; the model Mitzenmacher examined and
// the paper omitted "for compactness"): each server refreshes its own board
// entry on its own period-T schedule, with per-server phase offsets, so
// entries have different ages. LI policies receive the mean entry age.
//
// Under fault injection a server's heartbeat can be lost (its entry keeps
// aging past T) or delayed (measured on schedule, visible later; deliveries
// from one server are FIFO). Measured heartbeats wait for their publish time
// in a per-server sim::Fifo, which allocates nothing until that server's
// first heartbeat, so building a board costs O(1) allocations at any n.
//
// Heartbeats come off a min-heap of (next refresh, server), ties to the
// highest server index, and publish in ascending server index from a sorted
// list of the servers holding undelivered heartbeats, so a sync costs
// O(log n) per heartbeat plus O(servers with undelivered heartbeats). Both
// orders are part of the board's contract: they fix which cluster state each
// measurement reads and the order of version bumps, level-index updates and
// trace callbacks.
#pragma once

#include <cstdint>
#include <vector>

#include "loadinfo/refresh_faults.h"
#include "obs/trace_sink.h"
#include "queueing/cluster.h"
#include "sim/fifo.h"
#include "sim/level_histogram.h"
#include "sim/rng.h"

namespace stale::loadinfo {

class IndividualBoard {
 public:
  // Offsets are drawn uniformly in [0, T) from `rng` so servers are
  // de-phased, mirroring staggered heartbeat timers in real systems.
  IndividualBoard(int num_servers, double update_interval, sim::Rng& rng);

  // Explicit phase offsets: server i first refreshes at offsets[i] (finite,
  // >= 0), then every update_interval.
  IndividualBoard(const std::vector<double>& offsets, double update_interval);

  // Refreshes every entry whose boundary passed by time `t`. `faults`
  // (nullable) may drop or delay individual heartbeats.
  void sync(queueing::Cluster& cluster, double t,
            RefreshFaults* faults = nullptr);

  const std::vector<int>& loads() const { return snapshot_; }
  double entry_age(int server, double t) const {
    return t - last_refresh_[static_cast<std::size_t>(server)];
  }
  double mean_age(double t) const;
  std::uint64_t version() const { return version_; }

  // Earliest pending heartbeat boundary across servers, O(1). Multi-board
  // drivers use this to interleave several boards' refreshes in global time
  // order.
  double next_refresh_at() const { return due_.front().at; }

  // Turns on the bucketed snapshot: level_index() stays in sync with
  // loads(), maintained O(1) per published heartbeat (each heartbeat moves
  // exactly one server between levels). Off by default so vector-path runs
  // pay nothing.
  void enable_level_index() {
    track_levels_ = true;
    level_index_.build(snapshot_);
  }
  const sim::LevelIndex& level_index() const { return level_index_; }
  // Mutable handle for the health layer's quarantine bookkeeping (the churn
  // trial retires evicted servers and readmits them on rejoin); per-heartbeat
  // maintenance keeps retired servers out of the histogram
  // (sim::LevelIndex::update only records their level).
  sim::LevelIndex& level_index_mut() { return level_index_; }

  // Attaches a trace sink notified per published heartbeat (on_board_refresh
  // with the whole visible snapshot) and per injected drop/delay
  // (on_refresh_fault with the server index). Pure observer; nullptr
  // detaches.
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }

 private:
  struct PendingHeartbeat {
    double publish;   // when the entry becomes visible
    double measured;  // when the queue length was sampled
    int value;
  };

  struct DueHeartbeat {
    double at;
    int server;
  };
  // Heap order for std::push_heap / pop_heap: the top is the earliest
  // boundary, and among equal boundaries the highest server index.
  static bool later(const DueHeartbeat& a, const DueHeartbeat& b) {
    return a.at > b.at || (a.at == b.at && a.server < b.server);
  }

  void publish_arrived(double t);

  double interval_;
  std::vector<DueHeartbeat> due_;  // one entry per server, heap by later()
  std::vector<double> last_refresh_;
  std::vector<int> snapshot_;
  std::vector<sim::Fifo<PendingHeartbeat>> pending_;  // per server
  std::vector<int> pending_servers_;  // ascending; those with pending_ set
  std::uint64_t version_ = 1;
  bool track_levels_ = false;
  sim::LevelIndex level_index_;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace stale::loadinfo
