// Deterministic, seed-reproducible degraded information for one simulation
// trial: refresh loss, refresh delay and estimator dropout.
//
// The injector owns three independent RNG streams split from the trial's
// engine — refresh loss, refresh delay, estimator dropout — so enabling one
// fault class never perturbs the draws of another, and a fault-free
// configuration consumes no randomness at all (bit-identical to a run
// without the fault layer).
//
// Crash/recovery is not here: a spec's crash keys configure the trial's one
// liveness process (health::ChurnInjector, via
// health::ChurnSpec::from_crash_faults), whose stream the engine splits just
// before this injector's three.
//
// The injector implements loadinfo::RefreshFaults, so the information
// models consult the same seeded streams for update loss and extra delay.
#pragma once

#include "fault/fault_spec.h"
#include "fault/fault_stats.h"
#include "loadinfo/refresh_faults.h"
#include "sim/rng.h"

namespace stale::fault {

class FaultInjector final : public loadinfo::RefreshFaults {
 public:
  // Splits the injector's private streams off `parent_rng` (which advances by
  // exactly three split() calls, independent of the spec).
  FaultInjector(const FaultSpec& spec, sim::Rng& parent_rng);

  // loadinfo::RefreshFaults:
  bool drop_refresh() override;
  double refresh_delay() override;

  // True when this arrival's sample never reaches the rate estimator.
  bool estimator_drop();

  FaultStats& stats() { return stats_; }
  const FaultStats& stats() const { return stats_; }

 private:
  FaultSpec spec_;
  sim::Rng loss_rng_;
  sim::Rng delay_rng_;
  sim::Rng estimator_rng_;
  FaultStats stats_;
};

}  // namespace stale::fault
