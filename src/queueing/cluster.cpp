#include "queueing/cluster.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "check/audit.h"

namespace stale::queueing {

namespace {
constexpr double kNever = std::numeric_limits<double>::infinity();
}  // namespace

Cluster::Cluster(int n, double history_window) {
  if (n <= 0) throw std::invalid_argument("Cluster: need at least one server");
  servers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) servers_.emplace_back(1.0, history_window);
  loads_.assign(static_cast<std::size_t>(n), 0);
  histogram_.assign(loads_);
  scheduled_.assign(static_cast<std::size_t>(n), kNever);
  total_rate_ = static_cast<double>(n);
}

Cluster::Cluster(std::vector<double> rates, double history_window) {
  if (rates.empty()) {
    throw std::invalid_argument("Cluster: need at least one server");
  }
  servers_.reserve(rates.size());
  for (double rate : rates) {
    servers_.emplace_back(rate, history_window);
    total_rate_ += rate;
  }
  loads_.assign(rates.size(), 0);
  histogram_.assign(loads_);
  scheduled_.assign(rates.size(), kNever);
}

void Cluster::refresh_load(std::size_t server) {
  STALE_DCHECK(server < loads_.size());
  const int length = servers_[server].length();
  if (length != loads_[server]) {
    histogram_.move(loads_[server], length);
    loads_[server] = length;
  }
}

void Cluster::schedule_front(std::size_t server) {
  STALE_DCHECK(server < scheduled_.size());
  const double next = servers_[server].next_departure();
  if (next == scheduled_[server]) return;
  scheduled_[server] = next;
  if (std::isfinite(next)) {
    due_.push({next, static_cast<int>(server)});
  }
}

void Cluster::advance_to(double t) {
  STALE_DCHECK(t >= advanced_time_);
  while (!due_.empty() && due_.top().when <= t) {
    const DueEntry entry = due_.top();
    due_.pop();
    const auto s = static_cast<std::size_t>(entry.server);
    // A mismatch means this entry was superseded (its departure was already
    // retired by an earlier pop's advance, or wiped by a crash): skip it.
    if (scheduled_[s] != entry.when) continue;
    servers_[s].advance_to(t);
    refresh_load(s);
    scheduled_[s] = kNever;
    schedule_front(s);
  }
  advanced_time_ = t;
}

double Cluster::assign(double t, int server, double job_size) {
  if (server < 0 || server >= size()) {
    throw std::out_of_range("Cluster::assign: bad server index");
  }
  advance_to(t);
  const auto s = static_cast<std::size_t>(server);
  const double departure = servers_[s].assign(t, job_size);
  histogram_.move(loads_[s], loads_[s] + 1);
  loads_[s] += 1;
  schedule_front(s);
  STALE_AUDIT(check::audit_level_histogram(histogram_.counts(),
                                           histogram_.total(), loads_,
                                           "Cluster::assign"));
  return departure;
}

void Cluster::loads_at(double t, std::vector<int>& out) const {
  out.resize(servers_.size());
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    const FifoServer& server = servers_[i];
    // The heap skips a server with no departure due, so its clock can trail
    // the cluster's; its queue length has held since its own clock.
    const bool held = t > server.advanced_time() && t <= advanced_time_;
    out[i] = held ? server.length() : server.length_at(t);
  }
}

void Cluster::enable_job_tracking() {
  for (FifoServer& server : servers_) server.enable_job_tracking();
}

double Cluster::assign_tagged(double t, int server, double job_size,
                              std::uint64_t tag, double born) {
  if (server < 0 || server >= size()) {
    throw std::out_of_range("Cluster::assign_tagged: bad server index");
  }
  advance_to(t);
  const auto s = static_cast<std::size_t>(server);
  const double departure = servers_[s].assign_tagged(t, job_size, tag, born);
  histogram_.move(loads_[s], loads_[s] + 1);
  loads_[s] += 1;
  schedule_front(s);
  STALE_AUDIT(check::audit_level_histogram(histogram_.counts(),
                                           histogram_.total(), loads_,
                                           "Cluster::assign_tagged"));
  return departure;
}

void Cluster::crash(double t, int server,
                    std::vector<DisplacedJob>& displaced) {
  if (server < 0 || server >= size()) {
    throw std::out_of_range("Cluster::crash: bad server index");
  }
  advance_to(t);
  const auto s = static_cast<std::size_t>(server);
  servers_[s].crash(t, displaced);
  if (loads_[s] != 0) histogram_.move(loads_[s], 0);
  loads_[s] = 0;
  // Any heap entry for the wiped queue is now stale; mismatch skips it.
  scheduled_[s] = kNever;
  STALE_AUDIT(check::audit_level_histogram(histogram_.counts(),
                                           histogram_.total(), loads_,
                                           "Cluster::crash"));
}

void Cluster::recover(double t, int server) {
  if (server < 0 || server >= size()) {
    throw std::out_of_range("Cluster::recover: bad server index");
  }
  advance_to(t);
  servers_[static_cast<std::size_t>(server)].recover(t);
}

void Cluster::drain_completions(std::vector<CompletedJob>& out) {
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    std::vector<CompletedJob>& done = servers_[i].completions();
    for (CompletedJob& job : done) {
      job.server = static_cast<int>(i);
      out.push_back(job);
    }
    done.clear();
  }
}

void Cluster::set_trace_sink(obs::TraceSink* sink) {
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    servers_[i].set_trace(sink, static_cast<int>(i));
  }
}

double Cluster::latest_pending_departure() const {
  double latest = advanced_time_;
  for (const FifoServer& server : servers_) {
    latest = std::max(latest, server.last_pending_departure());
  }
  return latest;
}

}  // namespace stale::queueing
