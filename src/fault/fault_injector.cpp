#include "fault/fault_injector.h"

#include <cmath>

namespace stale::fault {

FaultInjector::FaultInjector(const FaultSpec& spec, sim::Rng& parent_rng)
    : spec_(spec),
      loss_rng_(parent_rng.split()),
      delay_rng_(parent_rng.split()),
      estimator_rng_(parent_rng.split()) {
  spec_.validate();
}

bool FaultInjector::drop_refresh() {
  if (spec_.update_loss <= 0.0) return false;
  const bool dropped = loss_rng_.next_double() < spec_.update_loss;
  if (dropped) ++stats_.updates_lost;
  return dropped;
}

double FaultInjector::refresh_delay() {
  if (spec_.update_extra_delay <= 0.0) return 0.0;
  ++stats_.updates_delayed;
  return -std::log(delay_rng_.next_double_open0()) * spec_.update_extra_delay;
}

bool FaultInjector::estimator_drop() {
  if (spec_.estimator_dropout <= 0.0) return false;
  const bool dropped = estimator_rng_.next_double() < spec_.estimator_dropout;
  if (dropped) ++stats_.estimator_drops;
  return dropped;
}

}  // namespace stale::fault
