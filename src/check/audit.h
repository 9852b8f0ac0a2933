// Invariant auditors called from the sim/queueing/policy/fault hot paths.
//
// Each auditor is an inline function with no side effects on success; call
// sites wrap them in STALE_AUDIT(...) so an audit-off build compiles them
// away together with their argument evaluation. The auditors enforce the
// properties the paper's results rest on:
//
//   * probability vectors handed to a sampler carry finite, non-negative
//     mass, and — unless the fault sanitizer had to repair them — sum to
//     1 ± kProbabilityEps (mass must not silently leak, or the herd-effect
//     and k-subset comparisons are meaningless);
//   * the simulated clock never runs backwards;
//   * a CDF built from such a vector is non-decreasing and closes at 1;
//   * queue bookkeeping stays conserved (departure times sorted, per-job
//     metadata parallel to the departure deque);
//   * fault counters balance (every displaced job is either requeued or
//     lost; up/down transitions reconcile with the crash/recovery tallies).
//
// Cost when STALELOAD_AUDIT is ON: the vector audits are O(n) in the vector
// length at each call site, which multiplies steady-state dispatch work by a
// small constant (measured ~1.3–2x wall clock on the unit suite). When OFF,
// everything here is dead code.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "check/contracts.h"

namespace stale::check {

// |sum - 1| tolerance for normalized probability vectors: generous enough
// for accumulation error over millions of entries, tight enough to catch a
// genuinely dropped term.
inline constexpr double kProbabilityEps = 1e-7;

// Weights about to drive a dispatch decision. Always: finite, non-negative,
// positive total. When `expect_normalized` (the vector was produced by the
// paper's formulas and the sanitizer did not have to repair it), the mass
// must additionally sum to 1 ± kProbabilityEps.
inline void audit_dispatch_weights(std::span<const double> p,
                                   bool expect_normalized, const char* where) {
  STALE_ASSERT(!p.empty(), where);
  double sum = 0.0;
  for (double v : p) {
    STALE_ASSERT(std::isfinite(v), where);
    STALE_ASSERT(v >= 0.0, where);
    sum += v;
  }
  STALE_ASSERT(sum > 0.0, where);
  if (expect_normalized) {
    STALE_ASSERT(std::fabs(sum - 1.0) <= kProbabilityEps, where);
  }
}

// A cumulative distribution built from sanitized weights: non-decreasing,
// within [0, 1], closed at exactly 1 so sampling can never fall off the end.
inline void audit_cdf(std::span<const double> cdf, const char* where) {
  STALE_ASSERT(!cdf.empty(), where);
  double prev = 0.0;
  for (double v : cdf) {
    STALE_ASSERT(std::isfinite(v), where);
    STALE_ASSERT(v >= prev, where);
    prev = v;
  }
  STALE_ASSERT(cdf.back() == 1.0, where);
}

// Simulated time may only move forward.
inline void audit_monotonic_clock(double previous, double next,
                                  const char* where) {
  STALE_ASSERT(std::isfinite(next), where);
  STALE_ASSERT(next >= previous, where);
}

// Pending departure times of a FIFO server: ascending (FIFO, non-preemptive,
// work-conserving ⇒ completion order is dispatch order) and never behind the
// server's clock.
inline void audit_departures_sorted(std::span<const double> departures,
                                    double advanced_time, const char* where) {
  double prev = advanced_time;
  for (double d : departures) {
    STALE_ASSERT(std::isfinite(d), where);
    STALE_ASSERT(d >= prev, where);
    prev = d;
  }
}

// Fault-layer liveness bookkeeping: the cached alive count matches the mask,
// and the crash/recovery counters reconcile with how many servers are down
// (crashes - recoveries == currently-down) and with the transition counter.
inline void audit_fault_liveness(std::span<const std::uint8_t> alive,
                                 int alive_count, std::uint64_t crashes,
                                 std::uint64_t recoveries,
                                 std::uint64_t transitions,
                                 const char* where) {
  std::size_t up = 0;
  for (std::uint8_t a : alive) up += (a != 0) ? 1 : 0;
  STALE_ASSERT(static_cast<std::size_t>(alive_count) == up, where);
  STALE_ASSERT(crashes >= recoveries, where);
  STALE_ASSERT(crashes - recoveries == alive.size() - up, where);
  STALE_ASSERT(transitions == crashes + recoveries, where);
}

// Conservation across one crash: every job displaced by the crash is
// accounted exactly once, as either requeued or lost.
inline void audit_displaced_conserved(std::uint64_t displaced,
                                      std::uint64_t requeued,
                                      std::uint64_t lost, const char* where) {
  STALE_ASSERT(requeued + lost == displaced, where);
}

// Quarantine containment (src/health/): probability mass over servers the
// membership layer has quarantined (suspect/dead — alive[i] == 0) must be
// exactly zero, bit for bit. An epsilon of leaked mass would re-aim a herd
// at an evicted server over millions of dispatches. When the mask marks
// nobody alive the dispatcher must still send the job somewhere (the retry
// path charges the cost), so any distribution is legal then.
inline void audit_quarantined_mass(std::span<const double> p,
                                   std::span<const std::uint8_t> alive,
                                   const char* where) {
  if (alive.empty()) return;
  std::size_t up = 0;
  for (std::uint8_t a : alive) up += (a != 0) ? 1 : 0;
  if (up == 0) return;
  for (std::size_t i = 0; i < p.size() && i < alive.size(); ++i) {
    STALE_ASSERT(alive[i] != 0 || p[i] == 0.0, where);
  }
}

// Candidate containment for directly-picking paths (greedy, bucketed
// two-stage samplers, retry re-picks): the chosen server must be in the
// candidate set whenever the set is nonempty. With zero candidates the
// dispatcher must still send the job somewhere (the retry path charges the
// cost), so any pick is legal then.
inline void audit_candidate_pick(int server,
                                 std::span<const std::uint8_t> candidates,
                                 const char* where) {
  if (candidates.empty()) return;
  std::size_t count = 0;
  for (std::uint8_t c : candidates) count += (c != 0) ? 1 : 0;
  if (count == 0) return;
  STALE_ASSERT(server >= 0, where);
  STALE_ASSERT(static_cast<std::size_t>(server) < candidates.size(), where);
  STALE_ASSERT(candidates[static_cast<std::size_t>(server)] != 0, where);
}

// Bucketed dispatch under a liveness mask: the counted representation must
// be the candidate set, so every server the mask marks down must be retired
// from the level index (`Index` is sim::LevelIndex; templated so this layer
// includes nothing from sim/).
template <class Index>
void audit_dead_servers_retired(std::span<const std::uint8_t> alive,
                                const Index& levels, const char* where) {
  for (std::size_t i = 0; i < alive.size(); ++i) {
    STALE_ASSERT(alive[i] != 0 || levels.retired(static_cast<int>(i)), where);
  }
}

// Bucketed-board consistency: an incrementally maintained level histogram
// (counts[level] = number of servers at that queue length) must always equal
// a fresh recount of the raw load vector it shadows, and its total must
// account for every server. O(n) per call — the price of catching a missed
// move() the moment it happens rather than as a skewed dispatch distribution
// thousands of events later.
inline void audit_level_histogram(std::span<const std::int64_t> counts,
                                  std::int64_t total,
                                  std::span<const int> loads,
                                  const char* where) {
  STALE_ASSERT(total == static_cast<std::int64_t>(loads.size()), where);
  std::vector<std::int64_t> recount(counts.size(), 0);
  for (int load : loads) {
    STALE_ASSERT(load >= 0, where);
    STALE_ASSERT(static_cast<std::size_t>(load) < recount.size(), where);
    ++recount[static_cast<std::size_t>(load)];
  }
  for (std::size_t level = 0; level < counts.size(); ++level) {
    STALE_ASSERT(counts[level] == recount[level], where);
  }
}

}  // namespace stale::check
