// Sampling from discrete probability vectors produced by the LI algorithms.
//
// DiscreteSampler: O(log n) inverse-CDF sampling over an O(n) CDF build.
// rebuild() refills the CDF in place, so a policy whose distribution moves at
// every request (Basic LI re-solves whenever K = lambda * age moves, while
// its sort waits for the next board version) pays no allocation per rebuild.
// AliasSampler: Walker/Vose alias method, O(n) build and O(1) sampling,
// preferable when one distribution serves many draws over large n (e.g. a
// whole periodic-update phase at n = 100+).
#pragma once

#include <span>
#include <vector>

#include "sim/rng.h"

namespace stale::core {

class DiscreteSampler {
 public:
  // Empty until rebuild(); sample() needs a built distribution.
  DiscreteSampler() = default;

  // `probabilities` must be non-negative with a positive sum (it is
  // normalized internally).
  explicit DiscreteSampler(std::span<const double> probabilities);

  // Replaces the distribution, reusing the CDF's storage. Same validation
  // and result as constructing afresh; on a throw the old CDF is kept.
  void rebuild(std::span<const double> probabilities);

  int sample(sim::Rng& rng) const;

  int size() const { return static_cast<int>(cdf_.size()); }

 private:
  std::vector<double> cdf_;  // normalized inclusive prefix sums
};

class AliasSampler {
 public:
  explicit AliasSampler(std::span<const double> probabilities);

  int sample(sim::Rng& rng) const;

  int size() const { return static_cast<int>(prob_.size()); }

 private:
  std::vector<double> prob_;  // acceptance threshold per bucket
  std::vector<int> alias_;    // fallback index per bucket
};

}  // namespace stale::core
