#include "queueing/fifo_server.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <stdexcept>

#include "check/audit.h"

namespace stale::queueing {

#if STALE_AUDIT_ENABLED
namespace {

// Queue bookkeeping invariants, checked after every mutation in audit
// builds: pending departures ascending and not behind the server clock,
// per-job metadata exactly parallel to the departure queue when tracking,
// and the (queue-derived) queue length non-negative by construction — the
// cast in length() could only go negative on a size_t > INT_MAX queue,
// which the contract below rules out.
void audit_server(const sim::Fifo<double>& departures, double advanced_time,
                  bool track_jobs, std::size_t meta_size) {
  double prev = advanced_time;
  for (double d : departures) {
    STALE_ASSERT(std::isfinite(d), "FifoServer: non-finite departure time");
    STALE_ASSERT(d >= prev, "FifoServer: departures out of FIFO order");
    prev = d;
  }
  STALE_ASSERT(!track_jobs || meta_size == departures.size(),
               "FifoServer: job metadata diverged from departure queue");
  STALE_ASSERT(departures.size() <= static_cast<std::size_t>(INT_MAX),
               "FifoServer: queue length overflows int");
}

}  // namespace
#endif  // STALE_AUDIT_ENABLED

FifoServer::FifoServer(double rate, double history_window)
    : rate_(rate), history_window_(history_window) {
  if (rate <= 0.0) throw std::invalid_argument("FifoServer: rate must be > 0");
  if (history_window < 0.0) {
    throw std::invalid_argument("FifoServer: negative history window");
  }
}

void FifoServer::record(double t, int len) {
  STALE_DCHECK(len >= 0 && t >= 0.0);
  if (history_window_ <= 0.0) return;
  history_.emplace_back(t, len);
}

void FifoServer::prune(double before) {
  if (history_window_ <= 0.0) return;
  // Keep the last entry at/before `before` so queries at the window edge
  // still resolve; advance the logical start past everything older.
  while (history_begin_ + 1 < history_.size() &&
         history_[history_begin_ + 1].first <= before) {
    ++history_begin_;
  }
  // Physically compact once the dead prefix dominates.
  if (history_begin_ > 64 && history_begin_ * 2 > history_.size()) {
    history_.erase(history_.begin(),
                   history_.begin() + static_cast<std::ptrdiff_t>(history_begin_));
    history_begin_ = 0;
  }
  STALE_DCHECK(history_.empty() || history_begin_ < history_.size());
}

void FifoServer::advance_to(double t) {
  if (t < advanced_time_) {
    throw std::invalid_argument("FifoServer::advance_to: time went backwards");
  }
  while (!departures_.empty() && departures_.front() <= t) {
    const double dep = departures_.front();
    departures_.pop_front();
    ++completed_;
    if (track_jobs_) {
      const JobMeta& meta = meta_.front();
      completions_.push_back({meta.tag, dep - meta.born, dep, -1});
      meta_.pop_front();
    }
    record(dep, length());
    if (trace_) trace_->on_departure(dep, trace_index_, length());
    if (departures_.empty()) {
      busy_accum_ += dep - busy_since_;
      busy_since_ = -1.0;
    }
  }
  advanced_time_ = t;
  prune(t - history_window_);
  STALE_AUDIT(audit_server(departures_, advanced_time_, track_jobs_,
                           meta_.size()));
}

double FifoServer::assign(double t, double size) {
  if (!up_) {
    throw std::logic_error("FifoServer::assign: server is down");
  }
  if (track_jobs_) {
    throw std::logic_error(
        "FifoServer::assign: job tracking is on; use assign_tagged");
  }
  advance_to(t);
  const double start = departures_.empty() ? t : departures_.back();
  const double departure = start + size / rate_;
  if (departures_.empty()) busy_since_ = t;
  departures_.push_back(departure);
  record(t, length());
  if (trace_) trace_->on_dispatch(t, trace_index_, size, length(), departure);
  STALE_AUDIT(audit_server(departures_, advanced_time_, track_jobs_,
                           meta_.size()));
  return departure;
}

double FifoServer::assign_tagged(double t, double size, std::uint64_t tag,
                                 double born) {
  if (!up_) {
    throw std::logic_error("FifoServer::assign_tagged: server is down");
  }
  if (!track_jobs_) {
    throw std::logic_error(
        "FifoServer::assign_tagged: enable_job_tracking() first");
  }
  advance_to(t);
  const double start = departures_.empty() ? t : departures_.back();
  const double departure = start + size / rate_;
  if (departures_.empty()) busy_since_ = t;
  departures_.push_back(departure);
  meta_.push_back({tag, size, born});
  record(t, length());
  if (trace_) trace_->on_dispatch(t, trace_index_, size, length(), departure);
  STALE_AUDIT(audit_server(departures_, advanced_time_, track_jobs_,
                           meta_.size()));
  return departure;
}

void FifoServer::enable_job_tracking() {
  if (!departures_.empty()) {
    throw std::logic_error(
        "FifoServer::enable_job_tracking: jobs already in flight");
  }
  STALE_DCHECK(meta_.empty());
  track_jobs_ = true;
}

void FifoServer::crash(double t, std::vector<DisplacedJob>& displaced) {
  if (!track_jobs_) {
    throw std::logic_error("FifoServer::crash: enable_job_tracking() first");
  }
  if (!up_) {
    throw std::logic_error("FifoServer::crash: server already down");
  }
  advance_to(t);
  if (trace_) {
    trace_->on_server_down(t, trace_index_, static_cast<int>(meta_.size()));
  }
  for (const JobMeta& meta : meta_) {
    displaced.push_back({meta.tag, meta.size, meta.born});
  }
  meta_.clear();
  if (!departures_.empty()) {
    departures_.clear();
    busy_accum_ += t - busy_since_;
    busy_since_ = -1.0;
    record(t, 0);
  }
  up_ = false;
  STALE_AUDIT(audit_server(departures_, advanced_time_, track_jobs_,
                           meta_.size()));
}

void FifoServer::recover(double t) {
  if (up_) {
    throw std::logic_error("FifoServer::recover: server is not down");
  }
  advance_to(t);
  up_ = true;
  if (trace_) trace_->on_server_up(t, trace_index_);
  STALE_AUDIT(audit_server(departures_, advanced_time_, track_jobs_,
                           meta_.size()));
}

int FifoServer::length_at(double t) const {
  if (history_window_ <= 0.0) {
    throw std::logic_error("FifoServer::length_at: history tracking disabled");
  }
  if (t > advanced_time_) {
    throw std::invalid_argument("FifoServer::length_at: time in the future");
  }
  // Last history entry with time <= t gives the length from then until the
  // next change. Before any recorded change the server was empty.
  auto first = history_.begin() + static_cast<std::ptrdiff_t>(history_begin_);
  auto it = std::upper_bound(
      first, history_.end(), t,
      [](double value, const auto& entry) { return value < entry.first; });
  if (it == first) return 0;
  return std::prev(it)->second;
}

double FifoServer::ready_time(double t) const {
  return departures_.empty() ? t : departures_.back();
}

double FifoServer::busy_time() const {
  double busy = busy_accum_;
  if (busy_since_ >= 0.0) busy += advanced_time_ - busy_since_;
  return busy;
}

}  // namespace stale::queueing
