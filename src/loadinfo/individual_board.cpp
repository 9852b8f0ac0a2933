#include "loadinfo/individual_board.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "check/contracts.h"

namespace stale::loadinfo {

namespace {

std::vector<double> draw_offsets(int num_servers, double update_interval,
                                 sim::Rng& rng) {
  std::vector<double> offsets(
      static_cast<std::size_t>(std::max(num_servers, 0)));
  for (double& offset : offsets) offset = rng.next_double() * update_interval;
  return offsets;
}

}  // namespace

IndividualBoard::IndividualBoard(int num_servers, double update_interval,
                                 sim::Rng& rng)
    : IndividualBoard(draw_offsets(num_servers, update_interval, rng),
                      update_interval) {}

IndividualBoard::IndividualBoard(const std::vector<double>& offsets,
                                 double update_interval)
    : interval_(update_interval) {
  if (offsets.empty()) {
    throw std::invalid_argument("IndividualBoard: need at least one server");
  }
  if (update_interval <= 0.0) {
    throw std::invalid_argument("IndividualBoard: interval must be > 0");
  }
  const std::size_t n = offsets.size();
  snapshot_.assign(n, 0);
  last_refresh_.assign(n, 0.0);
  pending_.resize(n);
  due_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(offsets[i]) || offsets[i] < 0.0) {
      throw std::invalid_argument(
          "IndividualBoard: offsets must be finite, >= 0");
    }
    due_.push_back({offsets[i], static_cast<int>(i)});
  }
  std::make_heap(due_.begin(), due_.end(), later);
}

void IndividualBoard::sync(queueing::Cluster& cluster, double t,
                           RefreshFaults* faults) {
  // Take measurements in global time order so that each heartbeat reads the
  // cluster exactly at its boundary.
  while (due_.front().at <= t) {
    std::pop_heap(due_.begin(), due_.end(), later);
    DueHeartbeat& next = due_.back();
    const double due_time = next.at;
    const int due = next.server;
    STALE_DCHECK(due_time <= t);
    const auto s = static_cast<std::size_t>(due);
    if (faults == nullptr || !faults->drop_refresh()) {
      cluster.advance_to(due_time);
      const double delay = faults == nullptr ? 0.0 : faults->refresh_delay();
      if (trace_ && delay > 0.0) {
        trace_->on_refresh_fault(due_time,
                                 obs::FaultTraceEvent::kRefreshDelayed, due);
      }
      if (pending_[s].empty()) {
        pending_servers_.insert(std::lower_bound(pending_servers_.begin(),
                                                 pending_servers_.end(), due),
                                due);
      }
      // FIFO per server: a heartbeat never overtakes its predecessor.
      const double publish = std::max(
          due_time + delay,
          pending_[s].empty() ? 0.0 : pending_[s].back().publish);
      pending_[s].push_back({publish, due_time, cluster.loads()[s]});
    } else if (trace_) {
      trace_->on_refresh_fault(due_time, obs::FaultTraceEvent::kRefreshLost,
                               due);
    }
    next.at = due_time + interval_;
    std::push_heap(due_.begin(), due_.end(), later);
  }
  publish_arrived(t);
}

void IndividualBoard::publish_arrived(double t) {
  // Ascending server index, as a full pass over the servers would publish.
  std::size_t kept = 0;
  for (const int server : pending_servers_) {
    const auto s = static_cast<std::size_t>(server);
    sim::Fifo<PendingHeartbeat>& queue = pending_[s];
    while (!queue.empty() && queue.front().publish <= t) {
      STALE_DCHECK(queue.front().measured <= queue.front().publish);
      snapshot_[s] = queue.front().value;
      last_refresh_[s] = queue.front().measured;
      const double publish = queue.front().publish;
      queue.pop_front();
      ++version_;
      if (track_levels_) level_index_.update(server, snapshot_[s]);
      if (trace_) {
        trace_->on_board_refresh(publish, last_refresh_[s], version_,
                                 snapshot_);
      }
    }
    if (!queue.empty()) pending_servers_[kept++] = server;
  }
  pending_servers_.resize(kept);
}

double IndividualBoard::mean_age(double t) const {
  double total = 0.0;
  for (double last : last_refresh_) total += t - last;
  return total / static_cast<double>(last_refresh_.size());
}

}  // namespace stale::loadinfo
