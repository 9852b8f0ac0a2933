// Basic Load Interpretation (paper Section 4.1, Eqs. 2-4).
//
// Periodic update model: once per phase, compute the probability vector that
// equalizes expected queue lengths by the end of the phase (K = lambda * T)
// and sample every request of the phase from it.
//
// Continuous / update-on-access / individual-update models (Section 4.2 and
// the de-phased extension): same equation with K = lambda * age, where age
// moves at every request even when the board does not.
//
// The vector path caches in two halves (core::BasicLiSolver): the sorted
// board is keyed on the context's info_version, the fill, p and the sampler
// on K. A K-only change therefore costs O(n) with no sort.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/li_bucketed.h"
#include "core/load_interpretation.h"
#include "core/sampler.h"
#include "policy/policy.h"

namespace stale::policy {

class BasicLiPolicy final : public SelectionPolicy {
 public:
  BasicLiPolicy() = default;

  int select(const DispatchContext& context, sim::Rng& rng) override;
  std::string name() const override { return "basic_li"; }

 private:
  int select_bucketed(const DispatchContext& context, sim::Rng& rng);

  // Which representation the cached_* keys describe; kNone before the first
  // request.
  enum class Cached { kNone, kVector, kBucketed };
  Cached cached_ = Cached::kNone;
  std::uint64_t cached_version_ = 0;
  double cached_arrivals_ = -1.0;
  core::BasicLiSolver solver_;
  std::vector<double> p_;
  core::DiscreteSampler sampler_;
  std::optional<core::LevelSampler> level_sampler_;
};

}  // namespace stale::policy
