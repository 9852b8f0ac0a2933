#include "core/load_interpretation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace stale::core {

namespace {

// Below this K the closed form degenerates numerically; use the K -> 0 limit.
constexpr double kTinyArrivals = 1e-12;

void validate_loads(std::span<const double> loads) {
  if (loads.empty()) {
    throw std::invalid_argument("LI: empty load vector");
  }
  for (double b : loads) {
    if (b < 0.0 || !std::isfinite(b)) {
      throw std::invalid_argument("LI: loads must be finite, >= 0");
    }
  }
}

}  // namespace

void BasicLiSolver::set_board(std::span<const double> loads) {
  validate_loads(loads);
  loads_.assign(loads.begin(), loads.end());
  rates_.assign(loads.size(), 1.0);
  sort_board();
}

void BasicLiSolver::set_board(std::span<const int> loads) {
  if (loads.empty()) {
    throw std::invalid_argument("LI: empty load vector");
  }
  if (std::any_of(loads.begin(), loads.end(), [](int b) { return b < 0; })) {
    throw std::invalid_argument("LI: loads must be finite, >= 0");
  }
  loads_.assign(loads.begin(), loads.end());
  rates_.assign(loads.size(), 1.0);
  sort_board();
}

void BasicLiSolver::set_board(std::span<const double> loads,
                              std::span<const double> rates) {
  validate_loads(loads);
  if (rates.size() != loads.size()) {
    throw std::invalid_argument("LI: rates/loads size mismatch");
  }
  for (double c : rates) {
    if (c <= 0.0 || !std::isfinite(c)) {
      throw std::invalid_argument("LI: rates must be finite, > 0");
    }
  }
  loads_.assign(loads.begin(), loads.end());
  rates_.assign(rates.begin(), rates.end());
  sort_board();
}

void BasicLiSolver::sort_board() {
  const std::size_t n = loads_.size();
  // Sort server indices by normalized load b_i / c_i ascending.
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0);
  std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    return loads_[a] * rates_[b] < loads_[b] * rates_[a];  // b_a/c_a < b_b/c_b
  });

  // Eq. 3 generalized: the prefix order_[0..j-1] can be lifted to the
  // normalized level of order_[j-1] by need_j = level_j * sum(c) - sum(b)
  // jobs. The fill for a given K is the longest prefix whose every need_j
  // is <= K, so tabulate the running maximum (a NaN need, from overflowed
  // sums, blocks the prefix like an infinite one).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  prefix_.resize(n);
  double load_sum = loads_[order_[0]];
  double rate_sum = rates_[order_[0]];
  double need_max = -kInf;
  prefix_[0] = {load_sum, rate_sum, need_max};
  for (std::size_t j = 2; j <= n; ++j) {
    const std::size_t idx = order_[j - 1];
    load_sum += loads_[idx];
    rate_sum += rates_[idx];
    const double level_j = loads_[idx] / rates_[idx];
    const double need = level_j * rate_sum - load_sum;
    need_max = std::isnan(need) ? kInf : std::max(need_max, need);
    prefix_[j - 1] = {load_sum, rate_sum, need_max};
  }
}

void BasicLiSolver::solve(double expected_arrivals,
                          std::vector<double>& p) const {
  if (expected_arrivals < 0.0 || !std::isfinite(expected_arrivals)) {
    throw std::invalid_argument("LI: expected_arrivals must be finite, >= 0");
  }
  if (order_.empty()) {
    throw std::logic_error("BasicLiSolver: solve() before set_board()");
  }
  const double K = expected_arrivals;
  p.assign(loads_.size(), 0.0);

  if (K <= kTinyArrivals) {
    // K -> 0 limit: all mass on the minimum-normalized-load set, shared
    // proportionally to service rate.
    const std::size_t first = order_[0];
    const double min_norm = loads_[first] / rates_[first];
    double rate_sum = 0.0;
    for (std::size_t i : order_) {
      if (loads_[i] / rates_[i] <= min_norm + 1e-12) rate_sum += rates_[i];
    }
    for (std::size_t i : order_) {
      if (loads_[i] / rates_[i] <= min_norm + 1e-12) {
        p[i] = rates_[i] / rate_sum;
      }
    }
    return;
  }

  // The largest prefix m that K arrivals can fill (fill_need is sorted).
  const auto m = static_cast<std::size_t>(
      std::upper_bound(prefix_.begin(), prefix_.end(), K,
                       [](double k, const Prefix& prefix) {
                         return k < prefix.fill_need;
                       }) -
      prefix_.begin());

  // Common level after distributing K arrivals over the first m servers.
  const Prefix& filled = prefix_[m - 1];
  const double level = (filled.load_sum + K) / filled.rate_sum;
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t idx = order_[j];
    p[idx] = (level * rates_[idx] - loads_[idx]) / K;
    // Guard tiny negative values from floating-point cancellation.
    if (p[idx] < 0.0) p[idx] = 0.0;
  }

  // Renormalize to absorb FP drift (sum is 1 up to rounding by construction).
  const double total = std::accumulate(p.begin(), p.end(), 0.0);
  for (double& v : p) v /= total;
}

namespace {

// One-shot solve: the free functions' whole body. The solver is per thread
// to reuse its four buffers: a local one allocates them on every call and
// made BM_BasicLiProbabilities/10 about 40% slower. set_board() replaces all
// of its state.
template <typename... Board>
std::vector<double> solve_fresh(double expected_arrivals, Board... board) {
  static thread_local BasicLiSolver solver;
  solver.set_board(board...);
  std::vector<double> p;
  solver.solve(expected_arrivals, p);
  return p;
}

}  // namespace

std::vector<double> basic_li_probabilities_weighted(
    std::span<const double> loads, std::span<const double> rates,
    double expected_arrivals) {
  return solve_fresh(expected_arrivals, loads, rates);
}

std::vector<double> basic_li_probabilities(std::span<const double> loads,
                                           double expected_arrivals) {
  return solve_fresh(expected_arrivals, loads);
}

std::vector<double> basic_li_probabilities(std::span<const int> loads,
                                           double expected_arrivals) {
  return solve_fresh(expected_arrivals, loads);
}

std::vector<double> hybrid_li_first_interval_probabilities(
    std::span<const double> loads) {
  validate_loads(loads);
  const double peak = *std::max_element(loads.begin(), loads.end());
  std::vector<double> p(loads.size(), 0.0);
  double deficit_sum = 0.0;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    p[i] = peak - loads[i];
    deficit_sum += p[i];
  }
  if (deficit_sum <= 0.0) {
    // All loads equal: the first subinterval is empty; return uniform.
    std::fill(p.begin(), p.end(), 1.0 / static_cast<double>(loads.size()));
    return p;
  }
  for (double& v : p) v /= deficit_sum;
  return p;
}

double hybrid_li_first_interval_jobs(std::span<const double> loads) {
  validate_loads(loads);
  const double peak = *std::max_element(loads.begin(), loads.end());
  double total = 0.0;
  for (double b : loads) total += peak - b;
  return total;
}

}  // namespace stale::core
