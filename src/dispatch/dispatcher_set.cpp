#include "dispatch/dispatcher_set.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "check/contracts.h"

namespace stale::dispatch {

DispatcherSplit parse_dispatcher_split(const std::string& name) {
  if (name == "uniform") return DispatcherSplit::kUniform;
  if (name == "weighted") return DispatcherSplit::kWeighted;
  throw std::invalid_argument("parse_dispatcher_split: unknown split '" +
                              name + "' (known: uniform, weighted)");
}

std::string dispatcher_split_name(DispatcherSplit split) {
  switch (split) {
    case DispatcherSplit::kUniform:
      return "uniform";
    case DispatcherSplit::kWeighted:
      return "weighted";
  }
  throw std::logic_error("dispatcher_split_name: bad enum");
}

ArrivalSplitter::ArrivalSplitter(int num_dispatchers, DispatcherSplit split) {
  if (num_dispatchers < 1) {
    throw std::invalid_argument(
        "ArrivalSplitter: need at least one dispatcher");
  }
  cumulative_.resize(static_cast<std::size_t>(num_dispatchers));
  double total = 0.0;
  for (int d = 0; d < num_dispatchers; ++d) {
    const double weight =
        split == DispatcherSplit::kUniform ? 1.0 : static_cast<double>(d + 1);
    total += weight;
    cumulative_[static_cast<std::size_t>(d)] = total;
  }
  for (double& c : cumulative_) c /= total;
  cumulative_.back() = 1.0;  // exact upper edge despite rounding
}

int ArrivalSplitter::pick(sim::Rng& rng) const {
  if (cumulative_.size() == 1) return 0;
  const double u = rng.next_double();
  // D is small (a handful of dispatcher front-ends); a linear scan beats a
  // binary search at these sizes and keeps the draw-to-index map obvious.
  for (std::size_t d = 0; d + 1 < cumulative_.size(); ++d) {
    if (u < cumulative_[d]) return static_cast<int>(d);
  }
  return static_cast<int>(cumulative_.size()) - 1;
}

double ArrivalSplitter::share(int dispatcher) const {
  const auto d = static_cast<std::size_t>(dispatcher);
  return d == 0 ? cumulative_[0] : cumulative_[d] - cumulative_[d - 1];
}

DispatcherSet::DispatcherSet(int num_dispatchers, int num_servers,
                             double update_interval, bool use_individual,
                             sim::Rng& rng)
    : size_(num_dispatchers),
      num_servers_(num_servers),
      model_(use_individual ? Model::kIndividual : Model::kPeriodic),
      update_interval_(update_interval) {
  if (num_dispatchers < 1) {
    throw std::invalid_argument("DispatcherSet: need at least one dispatcher");
  }
  const auto count = static_cast<std::size_t>(num_dispatchers);
  if (use_individual) {
    individual_.reserve(count);
  } else {
    periodic_.reserve(count);
  }
  for (int d = 0; d < num_dispatchers; ++d) {
    sim::Rng offsets_rng = rng.split();
    if (use_individual) {
      individual_.emplace_back(num_servers, update_interval, offsets_rng);
    } else {
      // De-phased periodic schedules: dispatcher d refreshes at d*T/D + k*T,
      // so the D staleness clocks tile the interval instead of going stale
      // in lockstep. d == 0 keeps offset 0, the classic k*T schedule.
      periodic_.emplace_back(num_servers, update_interval,
                             update_interval * static_cast<double>(d) /
                                 static_cast<double>(num_dispatchers));
    }
  }
}

DispatcherSet::DispatcherSet(loadinfo::ClientSnapshots clients)
    : size_(1),
      num_servers_(static_cast<int>(clients.loads().size())),
      model_(Model::kOnAccess),
      update_interval_(0.0),
      clients_(std::move(clients)) {}

void DispatcherSet::enable_continuous_views(loadinfo::DelayKind kind,
                                            bool know_actual_age,
                                            double extra_delay_allowance) {
  model_ = Model::kContinuous;
  periodic_.clear();
  individual_.clear();
  views_.reserve(static_cast<std::size_t>(size_));
  for (int d = 0; d < size_; ++d) {
    views_.emplace_back(kind, update_interval_, know_actual_age,
                        extra_delay_allowance);
  }
  STALE_DCHECK(views_.size() == static_cast<std::size_t>(size_));
}

const sim::LevelIndex& DispatcherSet::level_index(int d) const {
  const auto i = static_cast<std::size_t>(d);
  if (model_ == Model::kOnAccess) return clients_->level_index();
  if (model_ == Model::kContinuous) return views_[i].level_index();
  return model_ == Model::kIndividual ? individual_[i].level_index()
                                      : periodic_[i].level_index();
}

sim::LevelIndex& DispatcherSet::level_index_mut(int d) {
  const auto i = static_cast<std::size_t>(d);
  if (model_ == Model::kOnAccess) return clients_->level_index_mut();
  if (model_ == Model::kContinuous) return views_[i].level_index_mut();
  return model_ == Model::kIndividual ? individual_[i].level_index_mut()
                                      : periodic_[i].level_index_mut();
}

double DispatcherSet::next_refresh(std::size_t d) const {
  return model_ == Model::kIndividual ? individual_[d].next_refresh_at()
                                      : periodic_[d].next_refresh_at();
}

void DispatcherSet::sync_boards_to(queueing::Cluster& cluster, double t,
                                   loadinfo::RefreshFaults* faults) {
  const auto sync = [&](std::size_t d, double until) {
    if (model_ == Model::kIndividual) {
      individual_[d].sync(cluster, until, faults);
    } else {
      periodic_[d].sync(cluster, until, faults);
    }
  };
  // Interleave the boards' measurement boundaries in global time order by
  // granting the due board a time *slice*: it syncs through every boundary
  // of its own that precedes the next boundary of any other board (or t),
  // so no board's measurement can observe cluster state from another
  // board's future, while each board's own sync() call keeps its internal
  // measure-then-publish discipline intact. At D == 1 the slice is always
  // t: one sync(cluster, t) per arrival with a due boundary.
  const auto count = static_cast<std::size_t>(size_);
  while (true) {
    std::size_t best = count;
    double best_time = 0.0;
    for (std::size_t d = 0; d < count; ++d) {
      const double next = next_refresh(d);
      if (next <= t && (best == count || next < best_time)) {
        best = d;
        best_time = next;
      }
    }
    if (best == count) break;
    // Ties land the slice boundary on best_time itself; sync()'s inclusive
    // bound still processes the due boundary, and the tied board (a higher
    // dispatcher index, by the strict < above) goes next iteration.
    double slice_end = t;
    for (std::size_t d = 0; d < count; ++d) {
      if (d != best) slice_end = std::min(slice_end, next_refresh(d));
    }
    sync(best, slice_end);
    STALE_DCHECK(next_refresh(best) > slice_end);
  }
  // A fault-delayed refresh becomes visible at its publish time, which no
  // boundary marks: give every board a boundary-free sync to publish it.
  if (faults != nullptr) {
    for (std::size_t d = 0; d < count; ++d) sync(d, t);
  }
}

void DispatcherSet::observe(int d, const queueing::Cluster& cluster, double t,
                            sim::Rng& rng, loadinfo::RefreshFaults* faults) {
  STALE_DCHECK(model_ == Model::kContinuous && cluster.advanced_time() >= t);
  views_.at(static_cast<std::size_t>(d)).observe(cluster, t, rng, faults);
}

void DispatcherSet::enable_level_index() {
  for (loadinfo::PeriodicBoard& board : periodic_) board.enable_level_index();
  for (loadinfo::IndividualBoard& board : individual_) {
    board.enable_level_index();
  }
  for (loadinfo::ContinuousView& view : views_) {
    view.enable_level_index(num_servers_);
  }
  if (clients_) clients_->enable_level_index();
}

void DispatcherSet::set_trace_sink(obs::TraceSink* sink) {
  for (loadinfo::PeriodicBoard& board : periodic_) board.set_trace_sink(sink);
  for (loadinfo::IndividualBoard& board : individual_) {
    board.set_trace_sink(sink);
  }
  for (loadinfo::ContinuousView& view : views_) view.set_trace_sink(sink);
  if (clients_) clients_->set_trace_sink(sink);
}

}  // namespace stale::dispatch
