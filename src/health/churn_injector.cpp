#include "health/churn_injector.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

#include "check/audit.h"

namespace stale::health {

namespace {
constexpr double kNever = std::numeric_limits<double>::infinity();
}  // namespace

ChurnInjector::ChurnInjector(const ChurnSpec& spec, int num_servers,
                             sim::Rng& parent_rng)
    : spec_(spec), churn_rng_(parent_rng.split()), num_servers_(num_servers) {
  if (num_servers <= 0) {
    throw std::invalid_argument("ChurnInjector: need at least one server");
  }
  spec_.validate();
  const auto n = static_cast<std::size_t>(num_servers);
  up_.assign(n, 1);
  up_count_ = num_servers;
  restart_at_.resize(n);
  leave_at_.resize(n);
  up_at_.assign(n, kNever);
  cause_.assign(n, Cause::kNone);
  heap_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    restart_at_[s] = spec_.has_restarts()
                         ? spec_.restart_every * static_cast<double>(s + 1)
                         : kNever;
    leave_at_[s] = spec_.has_leaves() ? draw_leave_gap() : kNever;
    const double first = pending(s);
    if (first != kNever) heap_.emplace_back(first, static_cast<int>(s));
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
}

double ChurnInjector::draw_leave_gap() {
  return -std::log(churn_rng_.next_double_open0()) / spec_.leave_rate;
}

double ChurnInjector::draw_rejoin_gap() {
  return -std::log(churn_rng_.next_double_open0()) * spec_.rejoin_delay;
}

double ChurnInjector::pending(std::size_t server) const {
  return up_[server] != 0 ? std::min(restart_at_[server], leave_at_[server])
                          : up_at_[server];
}

double ChurnInjector::next_transition_time() const {
  return heap_.empty() ? kNever : heap_.front().first;
}

void ChurnInjector::apply_down(queueing::Cluster& cluster, double when,
                               int server, const RequeueFn& requeue) {
  const auto s = static_cast<std::size_t>(server);
  displaced_scratch_.clear();
  cluster.crash(when, server, displaced_scratch_);
  up_[s] = 0;
  --up_count_;
  ++stats_.crashes;
  [[maybe_unused]] const std::uint64_t requeued_before = stats_.jobs_requeued;
  [[maybe_unused]] const std::uint64_t lost_before = stats_.jobs_lost;
  if (spec_.semantics == fault::CrashSemantics::kRequeue && requeue) {
    for (const queueing::DisplacedJob& job : displaced_scratch_) {
      if (requeue(when, job)) {
        ++stats_.jobs_requeued;
      } else {
        ++stats_.jobs_lost;
      }
    }
  } else {
    stats_.jobs_lost += displaced_scratch_.size();
  }
  STALE_AUDIT(check::audit_displaced_conserved(
      displaced_scratch_.size(), stats_.jobs_requeued - requeued_before,
      stats_.jobs_lost - lost_before, "ChurnInjector::apply_down"));
  ++transitions_;
}

void ChurnInjector::apply_up(queueing::Cluster& cluster, double when,
                             int server) {
  const auto s = static_cast<std::size_t>(server);
  cluster.recover(when, server);
  up_[s] = 1;
  ++up_count_;
  ++stats_.recoveries;
  up_at_[s] = kNever;
  // Re-arm whichever schedule caused this downtime; the other one kept its
  // pending instant (a restart scheduled during a leave still happens, just
  // not retroactively).
  if (cause_[s] == Cause::kRestart) {
    restart_at_[s] +=
        spec_.restart_every * static_cast<double>(num_servers_);
  } else if (spec_.has_leaves()) {
    leave_at_[s] = when + draw_leave_gap();
  }
  cause_[s] = Cause::kNone;
  // A restart instant that elapsed while the server was down for another
  // reason is folded into the downtime it overlapped.
  while (restart_at_[s] <= when) {
    restart_at_[s] +=
        spec_.restart_every * static_cast<double>(num_servers_);
  }
  if (spec_.has_leaves() && leave_at_[s] <= when) {
    leave_at_[s] = when + draw_leave_gap();
  }
  ++transitions_;
}

void ChurnInjector::advance_to(queueing::Cluster& cluster, double t,
                               const RequeueFn& requeue) {
  // Only the firing server's pending instant changes, so each transition is
  // one pop plus at most one push. The heap orders (time, server) pairs, so
  // ties go to the lowest server index, deterministically.
  while (!heap_.empty() && heap_.front().first <= t) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const auto [when, which] = heap_.back();
    heap_.pop_back();
    const auto s = static_cast<std::size_t>(which);
    if (up_[s] != 0) {
      cause_[s] =
          restart_at_[s] <= leave_at_[s] ? Cause::kRestart : Cause::kLeave;
      up_at_[s] = when + (cause_[s] == Cause::kRestart ? spec_.restart_down
                                                       : draw_rejoin_gap());
      apply_down(cluster, when, which, requeue);
    } else {
      apply_up(cluster, when, which);
    }
    const double next = pending(s);
    if (next != kNever) {
      heap_.emplace_back(next, which);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    STALE_AUDIT(check::audit_fault_liveness(
        up_, up_count_, stats_.crashes, stats_.recoveries, transitions_,
        "ChurnInjector::advance_to"));
  }
}

}  // namespace stale::health
