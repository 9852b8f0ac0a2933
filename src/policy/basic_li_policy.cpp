#include "policy/basic_li_policy.h"

#include <algorithm>
#include <stdexcept>

#include "check/audit.h"

namespace stale::policy {

int BasicLiPolicy::select(const DispatchContext& context, sim::Rng& rng) {
  if (context.loads.empty()) {
    throw std::invalid_argument("BasicLiPolicy: empty load vector");
  }
  if (context.use_bucketed()) return select_bucketed(context, rng);
  const double expected_arrivals = context.basic_li_expected_arrivals();
  const bool board_moved = cached_ != Cached::kVector ||
                           cached_version_ != context.info_version;
  if (board_moved) solver_.set_board(context.loads);
  // The sort is keyed on info_version alone: a board that changed without
  // a version bump would be interpreted against a stale order.
  STALE_ASSERT(std::equal(context.loads.begin(), context.loads.end(),
                          solver_.loads().begin(), solver_.loads().end()),
               "BasicLiPolicy: loads changed without an info_version bump");
  if (board_moved || cached_arrivals_ != expected_arrivals) {
    solver_.solve(expected_arrivals, p_);
    const bool repaired = sanitize_probabilities(p_, context.alive);
    if (repaired) context.count_sanitize_event();
    STALE_AUDIT(
        check::audit_dispatch_weights(p_, !repaired, "BasicLiPolicy::select"));
    context.trace_probabilities(p_);
    sampler_.rebuild(p_);
    cached_ = Cached::kVector;
    cached_version_ = context.info_version;
    cached_arrivals_ = expected_arrivals;
  }
  return sampler_.sample(rng);
}

int BasicLiPolicy::select_bucketed(const DispatchContext& context,
                                   sim::Rng& rng) {
  const double expected_arrivals = context.basic_li_expected_arrivals();
  if (cached_ != Cached::kBucketed ||
      cached_version_ != context.info_version ||
      cached_arrivals_ != expected_arrivals) {
    const std::vector<double> masses = core::basic_li_level_masses(
        context.levels->histogram(), expected_arrivals);
    // The vector-path reference spans the full load vector; with quarantined
    // servers retired from the index the representations intentionally
    // diverge, so the equivalence audit only applies at full membership.
    STALE_AUDIT(context.levels->retired_count() == 0
                    ? core::audit_basic_li_equivalence(
                          masses, context.loads, expected_arrivals,
                          "BasicLiPolicy::select_bucketed")
                    : void());
    if (context.trace != nullptr) trace_level_masses(context, masses);
    level_sampler_.emplace(std::span<const double>(masses));
    cached_ = Cached::kBucketed;
    cached_version_ = context.info_version;
    cached_arrivals_ = expected_arrivals;
  }
  return level_sampler_->sample(*context.levels, rng);
}

}  // namespace stale::policy
