// The board-model trial engine: D dispatchers (src/dispatch/) over one
// cluster, each with its own information instance (periodic or individual
// board, or continuous view), staleness clock and RNG stream. D = 1 is the
// paper's single dispatcher; D > 1 is where the herd warning compounds — D
// dispatchers independently misreading stale boards amplify each other — and
// where Join-Idle-Queue enters as the alternative with no staleness channel
// at all. Fault injection and membership churn are components of the same
// arrival loop, not separate engines.
//
// run_trial() sends every config here except update_on_access, whose
// per-client snapshot pulls run on their own engine.
#pragma once

#include <cstdint>

#include "driver/experiment.h"

namespace stale::driver {

// Runs one board-model trial. Preconditions (enforced by validate()): model
// is periodic, individual or continuous; dispatchers >= 1.
TrialResult run_multi_dispatcher_trial(const ExperimentConfig& config,
                                       std::uint64_t seed);

}  // namespace stale::driver
