#include "policy/li_subset_policy.h"

#include <stdexcept>
#include <string>

#include "check/audit.h"

namespace stale::policy {

LiSubsetPolicy::LiSubsetPolicy(int k) : k_(k) {
  if (k < 1) throw std::invalid_argument("LiSubsetPolicy: k must be >= 1");
}

int LiSubsetPolicy::select(const DispatchContext& context, sim::Rng& rng) {
  const int n = static_cast<int>(context.loads.size());
  const int k = std::min(k_, n);
  indices_.resize(static_cast<std::size_t>(k));
  sample_distinct(n, k, rng, indices_);

  subset_loads_.resize(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    subset_loads_[static_cast<std::size_t>(i)] =
        context.loads[static_cast<std::size_t>(
            indices_[static_cast<std::size_t>(i)])];
  }

  // The k sampled servers see, in expectation, k/n of the cluster's arrivals
  // over the interpretation window.
  const double subset_arrivals = context.basic_li_expected_arrivals() *
                                 static_cast<double>(k) /
                                 static_cast<double>(n);
  solver_.set_board(std::span<const double>(subset_loads_));
  solver_.solve(subset_arrivals, p_);
  if (!context.alive.empty()) {
    // Project the cluster-wide liveness mask onto the sampled subset so the
    // sanitizer can steer mass off known-dead members.
    subset_alive_.resize(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) {
      subset_alive_[static_cast<std::size_t>(i)] =
          context.alive[static_cast<std::size_t>(
              indices_[static_cast<std::size_t>(i)])];
    }
  }
  const bool repaired = sanitize_probabilities(
      p_, context.alive.empty() ? std::span<const std::uint8_t>{}
                                : std::span<const std::uint8_t>(subset_alive_));
  if (repaired) context.count_sanitize_event();
  STALE_AUDIT(
      check::audit_dispatch_weights(p_, !repaired, "LiSubsetPolicy::select"));
  context.trace_probabilities(p_);
  sampler_.rebuild(p_);
  return indices_[static_cast<std::size_t>(sampler_.sample(rng))];
}

std::string LiSubsetPolicy::name() const {
  return "basic_li_k:" + std::to_string(k_);
}

}  // namespace stale::policy
