#include "core/sampler.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "check/audit.h"

namespace stale::core {

namespace {

double validated_sum(std::span<const double> probabilities) {
  if (probabilities.empty()) {
    throw std::invalid_argument("sampler: empty probability vector");
  }
  double sum = 0.0;
  for (double v : probabilities) {
    if (v < 0.0 || !std::isfinite(v)) {
      throw std::invalid_argument("sampler: probabilities must be finite >=0");
    }
    sum += v;
  }
  if (sum <= 0.0) {
    throw std::invalid_argument("sampler: probabilities sum to zero");
  }
  return sum;
}

}  // namespace

DiscreteSampler::DiscreteSampler(std::span<const double> probabilities) {
  rebuild(probabilities);
}

void DiscreteSampler::rebuild(std::span<const double> probabilities) {
  const double sum = validated_sum(probabilities);
  cdf_.resize(probabilities.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < probabilities.size(); ++i) {
    acc += probabilities[i] / sum;
    // Clamp: accumulation can overshoot 1.0 by a few ulp, and an interior
    // value above the (forced) final 1.0 would break the sorted-range
    // precondition of the upper_bound in sample().
    cdf_[i] = std::min(acc, 1.0);
  }
  cdf_.back() = 1.0;  // close the FP gap so sample() can never fall off
  STALE_AUDIT(check::audit_cdf(cdf_, "DiscreteSampler"));
}

int DiscreteSampler::sample(sim::Rng& rng) const {
  const double u = rng.next_double();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int>(std::min<std::ptrdiff_t>(
      it - cdf_.begin(), static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
}

AliasSampler::AliasSampler(std::span<const double> probabilities) {
  const double sum = validated_sum(probabilities);
  const std::size_t n = probabilities.size();
  prob_.resize(n);
  alias_.resize(n);

  // Vose's stable alias construction.
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = probabilities[i] / sum * static_cast<double>(n);
  }
  std::vector<int> small;
  std::vector<int> large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<int>(i));
  }
  while (!small.empty() && !large.empty()) {
    const int s = small.back();
    small.pop_back();
    const int l = large.back();
    large.pop_back();
    prob_[static_cast<std::size_t>(s)] = scaled[static_cast<std::size_t>(s)];
    alias_[static_cast<std::size_t>(s)] = l;
    scaled[static_cast<std::size_t>(l)] =
        scaled[static_cast<std::size_t>(l)] +
        scaled[static_cast<std::size_t>(s)] - 1.0;
    (scaled[static_cast<std::size_t>(l)] < 1.0 ? small : large).push_back(l);
  }
  for (int i : large) {
    prob_[static_cast<std::size_t>(i)] = 1.0;
    alias_[static_cast<std::size_t>(i)] = i;
  }
  for (int i : small) {  // numerical leftovers
    prob_[static_cast<std::size_t>(i)] = 1.0;
    alias_[static_cast<std::size_t>(i)] = i;
  }
}

int AliasSampler::sample(sim::Rng& rng) const {
  const auto bucket =
      static_cast<std::size_t>(rng.next_below(prob_.size()));
  const double u = rng.next_double();
  return u < prob_[bucket] ? static_cast<int>(bucket) : alias_[bucket];
}

}  // namespace stale::core
