// A single FIFO server with unit-configurable service rate and exact lazy
// departure accounting.
//
// Because service is FIFO, non-preemptive and work-conserving, a job's
// departure time is fully determined at dispatch:
//     departure = max(arrival, time server frees up) + size / rate.
// The server therefore never needs departure *events*; it keeps the pending
// departure times in a ring (sim::Fifo, which allocates nothing until the
// first job arrives) and pops them lazily as simulated time advances.
// A pruned history of queue-length changes supports exact queries of the
// queue length at past instants, which the continuous-update staleness model
// needs ("what did this server look like d time units ago?").
//
// Fault support (see src/fault/): a server can crash and later recover. A
// crash empties the queue — the displaced jobs are either discarded
// (lost-work semantics) or handed back to the caller for re-dispatch
// (requeue semantics; a restarted job repeats its full service demand).
// Because a crash invalidates the precomputed departure times, fault-aware
// runs enable job tracking, which tags every job and reports completions
// (tag, response time) as simulated time retires them, instead of trusting
// the departure time computed at dispatch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "obs/trace_sink.h"
#include "sim/fifo.h"

namespace stale::queueing {

// A job that finished service; emitted only when job tracking is enabled.
struct CompletedJob {
  std::uint64_t tag = 0;    // caller-assigned id (the arrival index)
  double response = 0.0;    // departure - born
  double departure = 0.0;   // when the job finished (simulated time)
  int server = -1;          // filled by Cluster::drain_completions
};

// A job displaced by a crash (or taken by a steal), carrying what a
// dispatcher needs to requeue it.
struct DisplacedJob {
  std::uint64_t tag = 0;
  double size = 0.0;        // full service demand (restart semantics)
  double born = 0.0;        // original arrival time; response keeps accruing
};

class FifoServer {
 public:
  // `rate` is the service rate (work units per time unit); `history_window`
  // is how far back queue-length queries may reach (0 disables history
  // tracking entirely, saving memory when no delayed views are used).
  explicit FifoServer(double rate = 1.0, double history_window = 0.0);

  // Advances the server's notion of time to `t` (monotone non-decreasing),
  // retiring departures with time <= t. Must be called with non-decreasing t.
  void advance_to(double t);

  // Accepts a job of the given size at time `t` (caller must have called
  // advance_to(t) first, or t >= the last advanced time: assign advances
  // internally). Returns the job's departure time.
  double assign(double t, double size);

  // Tagged variant used by fault-aware runs: requires job tracking. `born`
  // is the time the job's response clock started (its original arrival, for
  // requeued jobs possibly long before `t`). A migrated job first spends
  // `setup` (its transfer) on the server before its service starts.
  double assign_tagged(double t, double size, std::uint64_t tag, double born,
                       double setup = 0.0);

  // Queue length (jobs in service + waiting) after all departures <= the
  // last advanced time have been retired.
  int length() const { return static_cast<int>(departures_.size()); }

  // Queue length at a past instant `t`, which must be >= advanced_time -
  // history_window and <= advanced_time. Requires history tracking.
  int length_at(double t) const;

  // Time at which the server would start a job assigned now (== last pending
  // departure, or the current time when idle).
  double ready_time(double t) const;

  // Total work (remaining service demand) is not tracked; the paper's
  // algorithms all use queue length as the load metric.

  double rate() const { return rate_; }
  double advanced_time() const { return advanced_time_; }
  std::size_t completed_jobs() const { return completed_; }
  double busy_time() const;  // total time spent non-idle so far (advanced)

  // --- fault support -------------------------------------------------------

  // Keeps per-job metadata so crashes can displace jobs and completions are
  // reported with their tags. Must be enabled before the first assign.
  void enable_job_tracking();
  bool job_tracking() const { return track_jobs_; }

  // Crashes the server at time `t`: advances to `t`, then moves every job
  // still queued or in service into `displaced` (in FIFO order) and empties
  // the queue. The server refuses assigns until recover(). Requires job
  // tracking (without tags a displaced job cannot be accounted for).
  void crash(double t, std::vector<DisplacedJob>& displaced);

  // Brings a crashed server back at time `t` with an empty queue.
  void recover(double t);

  // Removes the youngest waiting job (the back of a queue holding at least
  // one job behind the one in service) at time `t` and returns it with its
  // full service demand; the departures ahead of it do not move. Requires
  // job tracking. Fires no trace event: the receiving server's assign
  // reports the job.
  DisplacedJob take_youngest(double t);

  bool up() const { return up_; }

  // Completions retired by advance_to since the last drain (job tracking
  // only). Callers consume and clear via std::vector::clear().
  std::vector<CompletedJob>& completions() { return completions_; }

  // Latest pending departure, or the advanced time when idle — how far the
  // clock must advance for every dispatched job to finish.
  double last_pending_departure() const {
    return departures_.empty() ? advanced_time_ : departures_.back();
  }

  // Earliest pending departure, +inf when idle — the next instant at which
  // this server's queue length changes on its own. Drives the cluster's
  // lazy-advance heap.
  double next_departure() const {
    return departures_.empty() ? std::numeric_limits<double>::infinity()
                               : departures_.front();
  }

  // --- observability -------------------------------------------------------

  // Attaches a trace sink reporting this server as `index`. Sinks are pure
  // observers (obs/trace_sink.h): attaching one never changes simulated
  // behaviour. Pass nullptr to detach.
  void set_trace(obs::TraceSink* sink, int index) {
    trace_ = sink;
    trace_index_ = index;
  }

 private:
  struct JobMeta {
    std::uint64_t tag;
    double size;
    double born;
  };

  void record(double t, int len);
  void prune(double before);

  double rate_;
  double history_window_;
  double advanced_time_ = 0.0;
  sim::Fifo<double> departures_;  // pending departure times, ascending
  std::size_t completed_ = 0;

  // (time, queue length from `time` onward); ascending by time. Maintained
  // only when history_window_ > 0.
  std::vector<std::pair<double, int>> history_;
  std::size_t history_begin_ = 0;  // logical start (pruned prefix)

  // Busy-time accounting: accumulated across retired departures.
  double busy_accum_ = 0.0;
  double busy_since_ = -1.0;  // start of current busy period, <0 when idle

  // Fault state. meta_ parallels departures_ when tracking is on.
  bool track_jobs_ = false;
  bool up_ = true;
  sim::Fifo<JobMeta> meta_;
  std::vector<CompletedJob> completions_;

  // Trace hooks (null when tracing is off; one predictable branch per site).
  obs::TraceSink* trace_ = nullptr;
  int trace_index_ = -1;
};

}  // namespace stale::queueing
