// Basic LI-k (paper Section 5.7): Basic Load Interpretation restricted to a
// random k-subset of the load information. Per request: sample k servers,
// run Eqs. 2-4 over just their reported loads with the expected arrivals
// prorated to the subset (K * k / n), and sample the resulting k-point
// distribution. k = n recovers full Basic LI; k = 1 degenerates to oblivious
// random.
#pragma once

#include <vector>

#include "core/load_interpretation.h"
#include "core/sampler.h"
#include "policy/policy.h"

namespace stale::policy {

class LiSubsetPolicy final : public SelectionPolicy {
 public:
  explicit LiSubsetPolicy(int k);

  int select(const DispatchContext& context, sim::Rng& rng) override;
  std::string name() const override;
  int info_demand() const override { return k_; }

 private:
  int k_;
  std::vector<int> indices_;
  std::vector<double> subset_loads_;
  std::vector<std::uint8_t> subset_alive_;
  // Per-request scratch, kept to reuse its storage: each request draws a
  // fresh subset, so nothing here survives as a cache.
  core::BasicLiSolver solver_;
  std::vector<double> p_;
  core::DiscreteSampler sampler_;
};

}  // namespace stale::policy
