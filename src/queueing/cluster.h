// A cluster of FIFO servers behind a dispatcher. Owns per-server state and
// exposes current and historical queue-length vectors to the staleness
// models. All operations must be invoked with non-decreasing time.
//
// The cluster also maintains the level-occupancy histogram of its load
// vector incrementally (sim/level_histogram.h): every queue-length change is
// an O(1) move() on the histogram, so bucketed consumers never pay an O(n)
// recount. advance_to() is driven by a departure heap: it touches only the
// servers whose queues actually change, so an advance costs O(changes log n)
// rather than O(n), which is what makes large-n (10^5..10^6) simulation
// feasible. A server the heap skipped keeps its own clock behind the
// cluster's; its queue has not changed since, which loads_at() relies on.
//
// Fault-aware runs (src/fault/) enable job tracking, crash/recover individual
// servers, and drain completed jobs (tag + response time) instead of trusting
// the departure time precomputed at dispatch.
#pragma once

#include <cstdint>
#include <queue>
#include <span>
#include <vector>

#include "queueing/fifo_server.h"
#include "sim/level_histogram.h"

namespace stale::queueing {

class Cluster {
 public:
  // Homogeneous cluster of `n` unit-rate servers.
  Cluster(int n, double history_window = 0.0);

  // Heterogeneous cluster with explicit per-server rates (extension;
  // the paper's experiments use rate 1 everywhere).
  Cluster(std::vector<double> rates, double history_window);

  int size() const { return static_cast<int>(servers_.size()); }

  // Retires every departure <= t and refreshes the cached load vector (only
  // the servers with such departures are touched).
  void advance_to(double t);

  // Dispatches a job of `size` to `server` at time `t`. Advances the cluster
  // first. Returns the job's departure time.
  double assign(double t, int server, double job_size);

  // Queue lengths as of the last advance (valid until the next mutation).
  std::span<const int> loads() const { return loads_; }

  // Level-occupancy histogram of loads(), maintained incrementally.
  const sim::LevelHistogram& level_histogram() const { return histogram_; }

  // No-op: every cluster advances through its departure heap. Kept because
  // the repository benchmark (perfbench/src/sim_bench.cpp) still calls it.
  void enable_lazy_advance() {}

  // Queue lengths at past time `t` <= advanced_time() (requires a history
  // window reaching back to `t`).
  void loads_at(double t, std::vector<int>& out) const;

  const FifoServer& server(int i) const { return servers_.at(i); }

  double advanced_time() const { return advanced_time_; }
  double total_rate() const { return total_rate_; }

  // --- fault support -------------------------------------------------------

  // Turns on per-job metadata on every server (must precede any assign).
  void enable_job_tracking();

  // Tagged dispatch (requires job tracking); `born` starts the response clock.
  double assign_tagged(double t, int server, double job_size,
                       std::uint64_t tag, double born);

  // Crashes `server` at time `t`, appending its displaced jobs to
  // `displaced`. The cluster is advanced to `t` first so the crash point is
  // exact; the crashed server's load reads 0 until it recovers.
  void crash(double t, int server, std::vector<DisplacedJob>& displaced);

  // Brings a crashed server back at time `t`, empty.
  void recover(double t, int server);

  bool up(int server) const {
    return servers_.at(static_cast<std::size_t>(server)).up();
  }

  // Moves every completion retired since the last drain into `out`, in
  // server-index order (deterministic for a fixed event sequence).
  void drain_completions(std::vector<CompletedJob>& out);

  // Latest pending departure across servers (== advanced time when idle):
  // advancing to this instant retires every dispatched job.
  double latest_pending_departure() const;

  // Attaches `sink` to every server (each reporting its own index). Sinks
  // are pure observers; nullptr detaches.
  void set_trace_sink(obs::TraceSink* sink);

 private:
  // Re-reads one server's length into loads_ and the histogram.
  void refresh_load(std::size_t server);

  // Re-arms the departure heap for one server.
  void schedule_front(std::size_t server);

  // Heap entry; min-ordered by (when, server) so pops are deterministic.
  struct DueEntry {
    double when;
    int server;
    bool operator>(const DueEntry& other) const {
      if (when != other.when) return when > other.when;
      return server > other.server;
    }
  };

  std::vector<FifoServer> servers_;
  std::vector<int> loads_;
  sim::LevelHistogram histogram_;
  double advanced_time_ = 0.0;
  double total_rate_ = 0.0;

  // Departure heap. scheduled_[s] is the departure time currently armed in
  // the heap for server s (+inf = none); stale heap entries — superseded by
  // a pop or a crash — are recognized by mismatch and skipped.
  std::vector<double> scheduled_;
  std::priority_queue<DueEntry, std::vector<DueEntry>, std::greater<DueEntry>>
      due_;
};

}  // namespace stale::queueing
