// Update-on-access information (paper Section 3.2): each client places its
// next request by the loads the reply to its previous request carried, so
// information age is the client's own gap between requests. A reply lost to
// a fault leaves the client on its previous, older snapshot.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "loadinfo/refresh_faults.h"
#include "obs/trace_sink.h"
#include "queueing/cluster.h"
#include "sim/level_histogram.h"

namespace stale::loadinfo {

class ClientSnapshots {
 public:
  // Every client starts with the time-zero snapshot: the empty cluster.
  ClientSnapshots(int num_clients, int num_servers) {
    if (num_clients < 1) {
      throw std::invalid_argument("ClientSnapshots: need >= 1 client");
    }
    const auto clients = static_cast<std::size_t>(num_clients);
    loads_.assign(clients,
                  std::vector<int>(static_cast<std::size_t>(num_servers), 0));
    times_.assign(clients, 0.0);
  }

  // `client` issues the next request. Every access gets a fresh version():
  // the clients share one policy, whose cache must not hand one client's
  // interpretation to another.
  void access(int client) {
    current_ = static_cast<std::size_t>(client);
    ++version_;
    if (track_levels_) level_index_.build(loads());
  }

  // The reply to the request just dispatched at `t` carries the cluster's
  // loads back to the accessing client, unless `faults` (nullable) loses it.
  void reply(const queueing::Cluster& cluster, double t,
             RefreshFaults* faults) {
    if (faults != nullptr && faults->drop_refresh()) {
      if (trace_) {
        trace_->on_refresh_fault(t, obs::FaultTraceEvent::kRefreshLost, -1);
      }
      return;
    }
    const auto loads = cluster.loads();
    loads_[current_].assign(loads.begin(), loads.end());
    times_[current_] = t;
  }

  const std::vector<int>& loads() const { return loads_[current_]; }
  double age(double t) const { return t - times_[current_]; }
  std::uint64_t version() const { return version_; }

  // Bucketed snapshots: access() builds level_index() from the client's
  // loads, O(n) per request, as ContinuousView does. The index is sized
  // from the start, so servers can be retired before the first access.
  void enable_level_index() {
    track_levels_ = true;
    level_index_.build(loads());
  }
  const sim::LevelIndex& level_index() const { return level_index_; }
  // Liveness bookkeeping (retire/readmit); a rebuild keeps the retirement
  // mask (sim::LevelIndex::build).
  sim::LevelIndex& level_index_mut() { return level_index_; }

  // Attaches a trace sink notified per lost reply (on_refresh_fault).
  // Pure observer; nullptr detaches.
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }

 private:
  std::vector<std::vector<int>> loads_;  // each client's last reply
  std::vector<double> times_;            // and when it was dispatched
  std::size_t current_ = 0;
  std::uint64_t version_ = 0;
  bool track_levels_ = false;
  sim::LevelIndex level_index_;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace stale::loadinfo
