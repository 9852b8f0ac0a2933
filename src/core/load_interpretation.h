// The Load Interpretation (LI) math from the paper, as pure functions.
//
// Inputs are a reported load vector b (queue lengths, possibly stale) and the
// expected number of arrivals K that will hit the reported servers during the
// interval the interpretation covers (K = lambda_total * T for the periodic
// update model, K = lambda_total * age for the continuous / update-on-access
// models). The output is a probability vector p over the reported servers.
//
// Basic LI (paper Eqs. 2-4):
//   Choose p so that, in expectation, queue lengths are equal by the end of
//   the interval. With servers sorted ascending by load and m the largest
//   prefix that K arrivals can "fill" up to a common level
//   (Eq. 3: sum_{i<=m} (b_m - b_i) <= K), the common level is
//   L = (sum_{i<=m} b_i + K) / m and
//   p_i = (L - b_i) / K for i <= m, 0 otherwise (Eq. 4).
//   When K cannot even lift the least-loaded pair to a common level, all
//   probability concentrates on the least-loaded servers; when K -> infinity
//   p tends to uniform. Both limits are handled explicitly.
//
// Aggressive LI (paper Eq. 5) lives in aggressive_schedule.h.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace stale::core {

// Basic LI split by what each half depends on. set_board() sorts the
// servers by normalized load b_i / c_i and tabulates the prefix sums and
// fill thresholds Eq. 3 scans: everything that depends on the board alone,
// O(n log n). solve() finds the fill level m and the common level L for one
// K and writes p (Eq. 4): O(n), no sort. A caller keys the board half on
// its board version and the K half on K, so a model whose K moves at every
// request (K = lambda * age) sorts once per board change, not per request.
//
// Every free basic_li_* function below is a one-shot use of this solver, so
// a cached solve() is bit-identical to a fresh call on the same inputs.
class BasicLiSolver {
 public:
  // Unit service rates. Loads must be finite and >= 0 (std::invalid_argument
  // otherwise); an empty board is rejected.
  void set_board(std::span<const double> loads);
  void set_board(std::span<const int> loads);
  // Server i has service rate rates[i] (finite, > 0).
  void set_board(std::span<const double> loads, std::span<const double> rates);

  // Writes the Basic LI probabilities for K = expected_arrivals (finite,
  // >= 0) into `p`, resized to the board size; reuses p's storage. Throws
  // std::logic_error before the first set_board().
  void solve(double expected_arrivals, std::vector<double>& p) const;

  // The board set_board() last sorted (as doubles), for cache audits.
  std::span<const double> loads() const { return loads_; }

 private:
  void sort_board();

  std::vector<double> loads_;
  std::vector<double> rates_;
  std::vector<std::size_t> order_;  // servers by ascending b_i / c_i
  // prefix_[j - 1] describes the prefix order_[0..j-1]: its load and rate
  // sums, and the largest of the jobs needed to lift each prefix 2..j to
  // its own last server's level (non-decreasing in j; -inf for j = 1, as
  // one server always fills).
  struct Prefix {
    double load_sum;
    double rate_sum;
    double fill_need;
  };
  std::vector<Prefix> prefix_;
};

// Basic LI probabilities (Eqs. 2-4). `loads` are the reported queue lengths
// (need not be sorted; any non-negative reals). `expected_arrivals` is K >= 0.
// Returns a probability vector aligned with `loads` (sums to 1).
//
// Limit behaviour: K == 0 returns the uniform distribution over the set of
// minimum-load servers (the K -> 0 limit of Eq. 4).
std::vector<double> basic_li_probabilities(std::span<const double> loads,
                                           double expected_arrivals);

// Convenience overload for integer queue lengths.
std::vector<double> basic_li_probabilities(std::span<const int> loads,
                                           double expected_arrivals);

// Weighted generalization for heterogeneous servers (paper future work):
// server i has service rate c_i; the target is equal *expected backlog per
// unit rate* (b_i + a_i) / c_i across the filled set, with sum a_i = K and
// a_i >= 0. Reduces to basic_li_probabilities when all rates are equal.
std::vector<double> basic_li_probabilities_weighted(
    std::span<const double> loads, std::span<const double> rates,
    double expected_arrivals);

// Hybrid LI (paper Section 4.1.1): phase splits into two subintervals; during
// the first, arrivals are distributed proportionally to each server's deficit
// below the maximum reported load; during the second they are uniform. This
// returns the *first subinterval* distribution (deficit-proportional). The
// caller (policy layer) decides which subinterval applies. If all loads are
// equal the result is uniform.
std::vector<double> hybrid_li_first_interval_probabilities(
    std::span<const double> loads);

// Number of expected arrivals consumed by Hybrid LI's first subinterval:
// sum_i (max(b) - b_i).
double hybrid_li_first_interval_jobs(std::span<const double> loads);

}  // namespace stale::core
