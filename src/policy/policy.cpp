#include "policy/policy.h"

#include <cmath>
#include <stdexcept>

#include "check/audit.h"
#include "check/contracts.h"

namespace stale::policy {

void sample_distinct(int n, int k, sim::Rng& rng, std::span<int> out) {
  if (k < 0 || k > n || out.size() != static_cast<std::size_t>(k)) {
    throw std::invalid_argument("sample_distinct: need 0 <= k <= n");
  }
  // Floyd's algorithm: for j = n-k..n-1 pick t in [0, j]; insert t unless
  // already chosen, else insert j. Yields a uniform k-subset with exactly k
  // draws. Membership test is a linear scan over at most k elements — k is
  // tiny (<= 3 in the paper's sweeps) so this beats any hash set.
  int filled = 0;
  for (int j = n - k; j < n; ++j) {
    const int t = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(j) + 1));
    bool seen = false;
    for (int i = 0; i < filled; ++i) {
      if (out[static_cast<std::size_t>(i)] == t) {
        seen = true;
        break;
      }
    }
    out[static_cast<std::size_t>(filled++)] = seen ? j : t;
  }
}

bool sanitize_probabilities(std::vector<double>& p,
                            std::span<const std::uint8_t> alive) {
  // First pass: detect defects without touching the vector, so a healthy
  // input stays bit-identical (no renormalization drift in non-fault runs).
  // A healthy vector only needs some mass to sample from; for finite,
  // non-negative entries "a live entry is > 0" is the same test as "the live
  // mass is > 0", without the add chain.
  bool defective = false;
  bool has_mass = false;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double v = p[i];
    const bool dead = !alive.empty() && i < alive.size() && alive[i] == 0;
    if (!std::isfinite(v) || v < 0.0 || (dead && v > 0.0)) {
      defective = true;
    } else if (!dead && v > 0.0) {
      has_mass = true;
    }
  }
  if (!defective && has_mass) {
    STALE_AUDIT(check::audit_quarantined_mass(p, alive,
                                              "sanitize_probabilities"));
    return false;
  }

  double usable_mass = 0.0;
  if (defective) {
    for (std::size_t i = 0; i < p.size(); ++i) {
      const bool dead = !alive.empty() && i < alive.size() && alive[i] == 0;
      if (!std::isfinite(p[i]) || p[i] < 0.0 || dead) p[i] = 0.0;
    }
    for (double v : p) usable_mass += v;
  }
  if (usable_mass <= 0.0) {
    // Nothing usable survived: uniform over known-alive servers, or over
    // everyone when the mask is empty or marks nobody alive.
    std::size_t alive_count = 0;
    if (!alive.empty()) {
      for (std::size_t i = 0; i < p.size() && i < alive.size(); ++i) {
        if (alive[i] != 0) ++alive_count;
      }
    }
    if (alive_count == 0) {
      const double u = 1.0 / static_cast<double>(p.size());
      for (double& v : p) v = u;
    } else {
      const double u = 1.0 / static_cast<double>(alive_count);
      for (std::size_t i = 0; i < p.size(); ++i) {
        p[i] = (i < alive.size() && alive[i] != 0) ? u : 0.0;
      }
    }
  }
  STALE_AUDIT(
      check::audit_quarantined_mass(p, alive, "sanitize_probabilities"));
  return true;
}

[[gnu::noinline]] void trace_level_masses(
    const DispatchContext& context, std::span<const double> level_masses) {
  if (context.trace == nullptr) return;
  std::vector<double> p(context.loads.size(), 0.0);
  for (std::size_t i = 0; i < p.size(); ++i) {
    // Quarantined servers are retired from the index: the histogram counts
    // only their level peers that remain candidates, and their own mass is
    // exactly zero.
    if (context.known_dead(static_cast<int>(i))) continue;
    const auto level = static_cast<std::size_t>(context.loads[i]);
    if (level >= level_masses.size()) continue;
    const std::int64_t peers =
        context.levels->histogram().count(context.loads[i]);
    if (peers > 0) p[i] = level_masses[level] / static_cast<double>(peers);
  }
  context.trace_probabilities(p);
}

int pick_uniform_alive(std::span<const std::uint8_t> alive, std::size_t n,
                       sim::Rng& rng) {
  if (n == 0) throw std::invalid_argument("pick_uniform_alive: empty cluster");
  std::size_t alive_count = 0;
  for (std::size_t i = 0; i < alive.size() && i < n; ++i) {
    if (alive[i] != 0) ++alive_count;
  }
  if (alive.empty() || alive_count == 0) {
    return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
  }
  std::uint64_t pick = rng.next_below(alive_count);
  for (std::size_t i = 0; i < alive.size() && i < n; ++i) {
    if (alive[i] != 0 && pick-- == 0) return static_cast<int>(i);
  }
  throw std::logic_error("pick_uniform_alive: mask changed underfoot");
}

}  // namespace stale::policy
