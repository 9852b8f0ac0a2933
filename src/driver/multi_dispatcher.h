// The trial engine: D dispatchers (src/dispatch/) over one cluster, each with
// its own information instance (periodic or individual board, or continuous
// view), staleness clock and RNG stream. D = 1 is the paper's single
// dispatcher; D > 1 is where the herd warning compounds — D dispatchers
// independently misreading stale boards amplify each other — and where
// Join-Idle-Queue enters as the alternative with no staleness channel at
// all. Update-on-access is one more information model: its clients are one
// dispatcher reading, per request, what the client's previous reply carried.
// Fault injection and membership churn are components of the same arrival
// loop, not separate engines. run_trial() validates, then runs every config
// here.
#pragma once

#include <cstdint>

#include "driver/experiment.h"

namespace stale::driver {

// Runs one trial. Preconditions (enforced by validate()): dispatchers >= 1,
// and 1 under update_on_access.
TrialResult run_multi_dispatcher_trial(const ExperimentConfig& config,
                                       std::uint64_t seed);

}  // namespace stale::driver
