#include "policy/hybrid_li_policy.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "check/audit.h"
#include "core/load_interpretation.h"

namespace stale::policy {

int HybridLiPolicy::select(const DispatchContext& context, sim::Rng& rng) {
  if (context.loads.empty()) {
    throw std::invalid_argument("HybridLiPolicy: empty load vector");
  }
  if (context.use_bucketed()) return select_bucketed(context, rng);
  if (!first_sampler_ || cached_bucketed_ ||
      cached_version_ != context.info_version) {
    std::vector<double> loads(context.loads.begin(), context.loads.end());
    first_interval_jobs_ = core::hybrid_li_first_interval_jobs(loads);
    std::vector<double> p =
        core::hybrid_li_first_interval_probabilities(loads);
    const bool repaired = sanitize_probabilities(p, context.alive);
    if (repaired) context.count_sanitize_event();
    STALE_AUDIT(
        check::audit_dispatch_weights(p, !repaired, "HybridLiPolicy::select"));
    context.trace_probabilities(p);
    first_sampler_.emplace(std::span<const double>(p));
    cached_version_ = context.info_version;
    cached_bucketed_ = false;
  }
  // Expected arrivals consumed so far in this window: elapsed time under
  // periodic update, information age otherwise. Degrade a non-finite or
  // negative estimate to 0 (treat the window as just begun).
  double consumed =
      context.lambda_total *
      (context.periodic() ? context.phase_elapsed : context.age);
  if (!std::isfinite(consumed) || consumed < 0.0) consumed = 0.0;
  if (consumed < first_interval_jobs_) {
    return first_sampler_->sample(rng);
  }
  // Second subinterval: uniform — over known-alive servers when a fault
  // layer supplies liveness (identical draw sequence when it doesn't).
  return pick_uniform_alive(context.alive, context.loads.size(), rng);
}

int HybridLiPolicy::select_bucketed(const DispatchContext& context,
                                    sim::Rng& rng) {
  const sim::LevelHistogram& hist = context.levels->histogram();
  if (!first_level_sampler_ || !cached_bucketed_ ||
      cached_version_ != context.info_version) {
    first_interval_jobs_ = core::hybrid_li_first_interval_jobs(hist);
    const std::vector<double> masses =
        core::hybrid_li_first_interval_level_masses(hist);
    // Equivalence vs the vector path only holds at full membership; with
    // quarantined servers retired from the index the representations diverge
    // by design (see policy.h: DispatchContext::levels).
    STALE_AUDIT(context.levels->retired_count() == 0
                    ? core::audit_hybrid_equivalence(
                          masses, first_interval_jobs_, context.loads,
                          "HybridLiPolicy::select_bucketed")
                    : void());
    if (context.trace != nullptr) trace_level_masses(context, masses);
    first_level_sampler_.emplace(std::span<const double>(masses));
    cached_version_ = context.info_version;
    cached_bucketed_ = true;
  }
  double consumed =
      context.lambda_total *
      (context.periodic() ? context.phase_elapsed : context.age);
  if (!std::isfinite(consumed) || consumed < 0.0) consumed = 0.0;
  if (consumed < first_interval_jobs_) {
    return first_level_sampler_->sample(*context.levels, rng);
  }
  // Second subinterval: uniform (no liveness mask on the bucketed path).
  return pick_uniform_alive(context.alive, context.loads.size(), rng);
}

}  // namespace stale::policy
