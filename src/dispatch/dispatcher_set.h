// Multi-dispatcher scale-out layer (ROADMAP: the D-dispatcher regime of
// Goren/Vargaftik/Moses): D dispatchers share one queueing::Cluster, each
// with its own bulletin-board instance and its own staleness clock. The
// arrival stream is split across dispatchers by Poisson thinning, so each
// dispatcher sees an independent Poisson stream whose rate is its share of
// lambda * n.
//
// Two pieces live here, both deterministic and thread-confined to one trial:
//
//   * ArrivalSplitter — maps one RNG draw to a dispatcher index under the
//     configured split (uniform, or a linear ramp of weights for the skewed
//     "weighted" case). At D == 1 it draws nothing, so a one-dispatcher run
//     draws exactly the single-dispatcher sequence.
//
//   * DispatcherSet — owns the D instances of the active information model:
//     periodic boards de-phased with offset d*T/D, individual boards whose
//     per-server offsets come from one split() per dispatcher (in dispatcher
//     order), per-request continuous views, or update-on-access snapshots.
//     sync_all_to() interleaves the boards' measurement boundaries in global
//     time order — syncing board A straight to t would advance the cluster
//     past board B's earlier boundary and let B measure the future.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/contracts.h"
#include "loadinfo/client_snapshots.h"
#include "loadinfo/continuous_view.h"
#include "loadinfo/delay_distribution.h"
#include "loadinfo/individual_board.h"
#include "loadinfo/periodic_board.h"
#include "loadinfo/refresh_faults.h"
#include "obs/trace_sink.h"
#include "queueing/cluster.h"
#include "sim/rng.h"

namespace stale::dispatch {

// How arrivals are split across the D dispatchers.
//   kUniform  — every dispatcher gets an equal share.
//   kWeighted — dispatcher d gets share proportional to d + 1 (a fixed
//               linear ramp: the "one dispatcher fronts most of the traffic"
//               regime, without adding another knob to sweep).
enum class DispatcherSplit { kUniform, kWeighted };

DispatcherSplit parse_dispatcher_split(const std::string& name);
std::string dispatcher_split_name(DispatcherSplit split);

class ArrivalSplitter {
 public:
  ArrivalSplitter(int num_dispatchers, DispatcherSplit split);

  // Dispatcher for the next arrival. Draws exactly one next_double() when
  // D > 1 and nothing when D == 1.
  int pick(sim::Rng& rng) const;

  // Long-run fraction of arrivals dispatcher d receives.
  double share(int dispatcher) const;

  int size() const { return static_cast<int>(cumulative_.size()); }

 private:
  std::vector<double> cumulative_;  // cumulative shares; back() == 1
};

class DispatcherSet {
 public:
  // Consumes exactly one rng.split() per dispatcher (the individual board's
  // per-server offsets), whichever model is active, so the draws after it
  // do not depend on the model.
  DispatcherSet(int num_dispatchers, int num_servers, double update_interval,
                bool use_individual, sim::Rng& rng);

  // Update-on-access: one dispatcher, the client population. Draws nothing;
  // sync_all_to() is a no-op, since replies, not refreshes, move snapshots.
  explicit DispatcherSet(loadinfo::ClientSnapshots clients);

  // Switches every dispatcher to its own continuous-update view (paper
  // Section 3.1): sync_all_to() becomes a no-op and observe() materializes
  // a dispatcher's view per request. The cluster must keep a history window
  // of ContinuousView::history_window_for(kind, update_interval) plus
  // `extra_delay_allowance`.
  void enable_continuous_views(loadinfo::DelayKind kind, bool know_actual_age,
                               double extra_delay_allowance);

  int size() const { return size_; }

  // Update-on-access only: the clients' snapshots.
  loadinfo::ClientSnapshots& clients() {
    STALE_DCHECK(model_ == Model::kOnAccess);
    return *clients_;
  }

  // Active-model accessors (the board dispatcher d actually reads), inline
  // because the engine reads them on every arrival.
  const std::vector<int>& loads(int d) const {
    const auto i = static_cast<std::size_t>(d);
    if (model_ == Model::kOnAccess) return clients_->loads();
    if (model_ == Model::kContinuous) return views_[i].loads();
    return model_ == Model::kIndividual ? individual_[i].loads()
                                        : periodic_[i].loads();
  }
  double age(int d, double t) const {
    const auto i = static_cast<std::size_t>(d);
    if (model_ == Model::kOnAccess) return clients_->age(t);
    if (model_ == Model::kContinuous) return views_[i].reported_age();
    return model_ == Model::kIndividual ? individual_[i].mean_age(t)
                                        : periodic_[i].age(t);
  }
  std::uint64_t version(int d) const {
    const auto i = static_cast<std::size_t>(d);
    if (model_ == Model::kOnAccess) return clients_->version();
    if (model_ == Model::kContinuous) return views_[i].version();
    return model_ == Model::kIndividual ? individual_[i].version()
                                        : periodic_[i].version();
  }
  const sim::LevelIndex& level_index(int d) const;
  // The same index, for liveness bookkeeping (retire/readmit). Every model's
  // rebuild keeps the retirement mask.
  sim::LevelIndex& level_index_mut(int d);

  // Brings every active board up to date for an observation at `t`,
  // stepping the boards' pending measurement boundaries in global time
  // order (ties go to the lowest dispatcher index). `faults` (nullable) may
  // drop or delay refreshes; delayed ones are published once they arrive.
  void sync_all_to(queueing::Cluster& cluster, double t,
                   loadinfo::RefreshFaults* faults = nullptr) {
    if (model_ == Model::kPeriodic || model_ == Model::kIndividual) {
      sync_boards_to(cluster, t, faults);
    }
  }

  // Continuous views only: samples dispatcher d's delay from `rng` and
  // materializes its view for an arrival at `t` (the cluster must already
  // be advanced to `t`). `faults` (nullable) may drop or stretch it.
  void observe(int d, const queueing::Cluster& cluster, double t,
               sim::Rng& rng, loadinfo::RefreshFaults* faults);

  void enable_level_index();
  void set_trace_sink(obs::TraceSink* sink);

 private:
  enum class Model { kPeriodic, kIndividual, kContinuous, kOnAccess };

  double next_refresh(std::size_t d) const;
  void sync_boards_to(queueing::Cluster& cluster, double t,
                      loadinfo::RefreshFaults* faults);

  int size_;
  int num_servers_;
  Model model_;
  double update_interval_;
  std::vector<loadinfo::PeriodicBoard> periodic_;
  std::vector<loadinfo::IndividualBoard> individual_;
  std::vector<loadinfo::ContinuousView> views_;
  std::optional<loadinfo::ClientSnapshots> clients_;
};

}  // namespace stale::dispatch
