// Continuous-update view (paper Sections 3.1 and 5.2): each arriving request
// sees the cluster's state as it was `d` time units ago, with `d` drawn per
// request from a delay distribution of mean T. Depending on configuration,
// the policy is told either the mean delay T (Figure 6: "clients only know
// the average") or the actual sampled `d` (Figure 7: "clients know the age
// of information actually encountered").
//
// Under fault injection a request's refresh can be lost — the client is stuck
// with the previous view it obtained, whose age keeps growing across
// consecutive losses — or stretched by extra network delay added to `d`.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "loadinfo/delay_distribution.h"
#include "loadinfo/refresh_faults.h"
#include "obs/trace_sink.h"
#include "queueing/cluster.h"
#include "sim/level_histogram.h"
#include "sim/rng.h"

namespace stale::loadinfo {

class ContinuousView {
 public:
  // `mean_delay` is T. The cluster must be constructed with a history window
  // of at least history_window_for(kind, mean_delay) plus any
  // `extra_delay_allowance` for fault-stretched delays.
  ContinuousView(DelayKind kind, double mean_delay, bool know_actual_age,
                 double extra_delay_allowance = 0.0);

  // Recommended cluster history window for exact past-load queries. For the
  // unbounded exponential delay this caps the support at a quantile so far
  // out (40 mean delays, P ~ 4e-18) that clamping is unobservable.
  static double history_window_for(DelayKind kind, double mean_delay);

  // Samples this request's delay and materializes the view for an arrival at
  // time `t`. Returns the loads via loads(); reported_age() is what the
  // policy is told. `faults` (nullable) may drop the refresh (the previous
  // view is reused, older) or stretch the delay.
  void observe(const queueing::Cluster& cluster, double t, sim::Rng& rng,
               RefreshFaults* faults = nullptr);

  const std::vector<int>& loads() const { return loads_; }
  double reported_age() const { return reported_age_; }
  double actual_delay() const { return actual_delay_; }
  std::uint64_t version() const { return version_; }

  // Turns on the bucketed snapshot: level_index() is rebuilt alongside every
  // materialized view. Per-request views change wholesale (a fresh past
  // instant each observe), so the rebuild is O(n) per request — the bucketed
  // win under this model comes from the O(#levels) dispatch kernels, not
  // from snapshot maintenance. Off by default. Until the first observe the
  // view is the empty-cluster prior of `num_servers` zeros, so the index is
  // sized (and servers can be retired) from the start.
  void enable_level_index(int num_servers) {
    track_levels_ = true;
    if (loads_.empty()) {
      loads_.assign(static_cast<std::size_t>(num_servers), 0);
    }
    level_index_.build(loads_);
  }
  const sim::LevelIndex& level_index() const { return level_index_; }
  // Liveness bookkeeping (retire/readmit); a rebuild keeps the retirement
  // mask (sim::LevelIndex::build).
  sim::LevelIndex& level_index_mut() { return level_index_; }

  // Attaches a trace sink notified per materialized view (on_board_refresh;
  // one per request under this model) and per dropped refresh
  // (on_refresh_fault). Pure observer; nullptr detaches. Long traced runs
  // can disable snapshot copies via RecorderOptions.
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }

 private:
  double mean_delay_;
  bool know_actual_age_;
  double max_delay_;
  sim::DistributionPtr delay_;
  std::vector<int> loads_;
  double reported_age_ = 0.0;
  double actual_delay_ = 0.0;
  double last_measured_ = 0.0;  // instant the current view reflects
  std::uint64_t version_ = 0;
  bool track_levels_ = false;
  sim::LevelIndex level_index_;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace stale::loadinfo
