// The dispatch-policy interface shared by every algorithm in the study.
//
// Per arriving request the staleness model assembles a DispatchContext — the
// stale load vector plus everything the paper lets an algorithm know (the
// information's age, the phase geometry under periodic update, and the
// arrival-rate estimate) — and the policy returns a server index.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/trace_sink.h"
#include "sim/level_histogram.h"
#include "sim/rng.h"

namespace stale::policy {

// How the stale board is represented on the dispatch fast path.
//   kVector   — classic O(n) probability vector over servers.
//   kBucketed — O(#levels) kernels over the level histogram, two-stage
//               sampling (level, then uniform server within the level).
//   kAuto     — bucketed iff the cluster is at least
//               kBucketedAutoThreshold servers.
// Per-LEVEL dispatch distributions are identical across representations
// (audited under STALELOAD_AUDIT); RNG draw sequences differ, so paired
// runs of different representations are not bit-identical.
enum class BoardRepr { kAuto, kVector, kBucketed };

// kAuto switches to the bucketed path at this cluster size. Chosen well
// above every golden/paper configuration (n <= 100) so default runs keep
// their bit-exact historical trajectories.
inline constexpr int kBucketedAutoThreshold = 1024;

struct DispatchContext {
  // Reported (stale) queue length of each server. Always the full vector;
  // subset-based policies sample their own subset so that "restricted
  // information" is a property of the algorithm, as in the paper.
  std::span<const int> loads;

  // Age of the load information this request sees. Under periodic update
  // this equals phase_elapsed; under continuous update it is either the
  // actual sampled delay (Figure 7) or the mean delay (Figure 6), depending
  // on the model configuration; under update-on-access it is the actual
  // snapshot age.
  double age = 0.0;

  // Estimated aggregate arrival rate across the cluster (lambda * n), after
  // any misestimation factor the experiment applies (Figures 12-13).
  double lambda_total = 0.0;

  // Periodic-update phase geometry; phase_length <= 0 for the other models.
  double phase_length = 0.0;
  double phase_elapsed = 0.0;

  // Monotone counter bumped whenever `loads` changes (per phase under
  // periodic update, per request otherwise). Lets policies cache derived
  // structures (probability vectors, schedules) across requests of a phase.
  std::uint64_t info_version = 0;

  // Liveness the dispatcher knows about (fault and churn runs): alive[i] != 0
  // means server i is believed up. Empty means no liveness process —
  // everyone is alive. Policies must never concentrate probability on known-dead servers.
  std::span<const std::uint8_t> alive{};

  // When non-null, incremented each time a policy had to repair a degenerate
  // probability vector or fall back to uniform-over-alive (fault runs tally
  // this into FaultStats::sanitizer_fixes).
  std::uint64_t* sanitize_events = nullptr;

  // Bucketed view of `loads` (same snapshot, counted by level), or null when
  // the driver runs the vector representation. Policies with a bucketed fast
  // path use it via use_bucketed(); everything else ignores it.
  const sim::LevelIndex* levels = nullptr;

  // True when `levels` already excludes every server the `alive` mask marks
  // down (the trial engine retires them from the index). Lets the bucketed
  // fast path stay on under faults and churn: the counted representation
  // then IS the candidate set, so no per-server reshaping is needed.
  bool levels_exclude_quarantined = false;

  // Trace sink (obs/trace_sink.h), null when tracing is off. Probabilistic
  // policies report the vector they are about to sample from via
  // trace_probabilities() whenever they (re)build it; sinks are pure
  // observers, so tracing never changes which server is picked.
  obs::TraceSink* trace = nullptr;

  void trace_probabilities(std::span<const double> p) const {
    if (trace != nullptr) trace->on_probabilities(p);
  }

  bool periodic() const { return phase_length > 0.0; }

  // Bucketed fast path applies when a level index is provided and either no
  // liveness mask is active or the index already excludes every server the
  // mask marks down (the trial engine retires them under faults and churn).
  // A mask the index does not reflect reshapes probabilities per server,
  // which the counted representation cannot express.
  bool use_bucketed() const {
    return levels != nullptr && (alive.empty() || levels_exclude_quarantined);
  }

  bool known_dead(int server) const {
    return !alive.empty() && alive[static_cast<std::size_t>(server)] == 0;
  }

  void count_sanitize_event() const {
    if (sanitize_events != nullptr) ++*sanitize_events;
  }

  // Expected number of arrivals between when the information was valid and
  // "now" — the K each LI variant interprets against. Under periodic update
  // Basic LI uses the whole phase (lambda * T); elsewhere lambda * age.
  // Hardened against degraded rate estimates: a non-finite or negative
  // estimate (an estimator that has seen no samples, or overflowed) degrades
  // to K = 0, i.e. "interpret the information as fresh".
  double basic_li_expected_arrivals() const {
    const double k = lambda_total * (periodic() ? phase_length : age);
    return std::isfinite(k) && k >= 0.0 ? k : 0.0;
  }
};

class SelectionPolicy {
 public:
  virtual ~SelectionPolicy() = default;

  // Chooses a server for one arriving request.
  virtual int select(const DispatchContext& context, sim::Rng& rng) = 0;

  // Human-readable name used in tables ("k_subset:2", "basic_li", ...).
  virtual std::string name() const = 0;

  // How many servers' load values the policy actually reads per request
  // (the paper's "amount of load information"); kAllServers for full-vector
  // policies.
  static constexpr int kAllServers = -1;
  virtual int info_demand() const { return kAllServers; }
};

using PolicyPtr = std::unique_ptr<SelectionPolicy>;

// Samples `k` distinct indices uniformly from [0, n) into `out` (size k).
// Order is not specified. O(k) expected time, no O(n) scratch.
void sample_distinct(int n, int k, sim::Rng& rng, std::span<int> out);

// Repairs a probability vector in place: NaN/inf/negative entries become 0,
// mass on known-dead servers is zeroed, and if no usable mass remains the
// vector becomes uniform over known-alive servers (uniform over all when the
// liveness mask is empty or all-dead). A healthy vector is left bit-identical
// — in particular it is NOT renormalized. Returns true if anything changed.
bool sanitize_probabilities(std::vector<double>& p,
                            std::span<const std::uint8_t> alive);

// Uniform pick over the servers marked alive in `alive` (all `n` servers when
// the mask is empty or marks nobody alive — a dispatcher with no live option
// must still send the job somewhere and take the retry path).
int pick_uniform_alive(std::span<const std::uint8_t> alive, std::size_t n,
                       sim::Rng& rng);

// Cold path shared by the bucketed policies: materializes the per-server
// probability vector implied by per-level masses (each server at level l
// gets masses[l] / count(l)) and reports it to the trace sink. Only called
// when a sink is attached, so the O(n) expansion never taxes untraced runs.
void trace_level_masses(const DispatchContext& context,
                        std::span<const double> level_masses);

}  // namespace stale::policy
