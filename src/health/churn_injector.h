// Deterministic, seed-reproducible server liveness for one simulation trial:
// the ground truth a dispatcher's stale picture of who is up lags behind.
// It is the trial's one liveness process, whether a --churn-spec or a
// --fault-spec's crash keys configure it (ChurnSpec::from_crash_faults).
//
// Two churn processes compose, per server:
//   * rolling restarts — server s goes down at restart_every * (s + 1) and
//     every n * restart_every after that, staying down restart_down each
//     time (the classic fleet-wide rolling deploy);
//   * Poisson leave/rejoin — while up, time-to-leave ~ Exp(leave_rate);
//     while down, time-to-rejoin ~ Exp(rejoin_delay). A crash fault is
//     exactly this process, with leave = crash and rejoin = down.
//
// Transitions are applied in global time order (ties to the lowest server
// index) by advance_to(), which takes servers down or up in the cluster,
// tallies fault::FaultStats, and hands displaced jobs to a requeue callback
// (requeue semantics) or counts them lost. Pending transitions sit in one
// (time, server) min-heap, so a transition costs O(log n), not a scan. The
// injector draws from exactly one RNG stream split off the trial engine (a
// transition-free spec consumes no randomness), so enabling it never
// perturbs other draws.
//
// Deliberately, the injector never talks to Membership: under churn the
// dispatcher's health view must be earned from report recency and dispatch
// failures, the same way the live service earns it from packets.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "fault/fault_stats.h"
#include "health/churn_spec.h"
#include "queueing/cluster.h"
#include "sim/rng.h"

namespace stale::health {

class ChurnInjector {
 public:
  // Called at the down instant for each displaced job under requeue
  // semantics; the callee re-dispatches it (and must not advance the cluster
  // past that instant). Returns false when re-dispatch was impossible (e.g.
  // no server up), in which case the job counts as lost.
  using RequeueFn =
      std::function<bool(double when, const queueing::DisplacedJob& job)>;

  // Splits one private stream off `parent_rng` (exactly one split() call,
  // independent of the spec).
  ChurnInjector(const ChurnSpec& spec, int num_servers, sim::Rng& parent_rng);

  // Applies every down/up transition with time <= t, in time order.
  // `requeue` may be empty under lost-work semantics.
  void advance_to(queueing::Cluster& cluster, double t,
                  const RequeueFn& requeue);

  // Time of the earliest pending transition (+inf when there is none).
  // Drivers interleave board syncs with transitions in global time order:
  // sync the boards up to this instant, then advance the injector past it.
  double next_transition_time() const;

  // Ground-truth liveness (1 = actually up) — what the cluster would tell an
  // oracle. Stable storage for DispatchContext.
  std::span<const std::uint8_t> up() const { return up_; }
  int up_count() const { return up_count_; }

  // Monotone counter of down/up transitions.
  std::uint64_t transition_count() const { return transitions_; }

  fault::FaultStats& stats() { return stats_; }
  const fault::FaultStats& stats() const { return stats_; }

 private:
  double draw_leave_gap();
  double draw_rejoin_gap();
  double pending(std::size_t server) const;
  void apply_down(queueing::Cluster& cluster, double when, int server,
                  const RequeueFn& requeue);
  void apply_up(queueing::Cluster& cluster, double when, int server);

  // Cause of the pending or in-progress downtime of a server.
  enum class Cause : std::uint8_t { kNone, kRestart, kLeave };

  ChurnSpec spec_;
  sim::Rng churn_rng_;
  int num_servers_ = 0;
  std::vector<std::uint8_t> up_;
  std::vector<double> restart_at_;  // next scheduled rolling-restart down
  std::vector<double> leave_at_;    // next Poisson leave (while up)
  std::vector<double> up_at_;       // pending recovery (+inf while up)
  std::vector<Cause> cause_;
  // Min-heap (std::greater) of (pending transition, server): one entry per
  // server with a finite pending transition.
  std::vector<std::pair<double, int>> heap_;
  int up_count_ = 0;
  std::uint64_t transitions_ = 0;
  fault::FaultStats stats_;
  std::vector<queueing::DisplacedJob> displaced_scratch_;
};

}  // namespace stale::health
