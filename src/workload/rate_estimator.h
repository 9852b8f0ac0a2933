// Cumulative exponential moving average (CEMA) arrival-rate estimation.
//
// The plain EMA x' = a*v + (1-a)*x is biased toward its initializer for the
// first ~1/a updates — exactly the warm-up window where LI most needs a
// usable lambda-hat. The CEMA divides the EMA accumulator by the cumulative
// weight it has actually absorbed, 1 - (1-a)^k after k updates, so the
// estimate equals the *weighted average of the observed samples only*: after
// one update it is that sample, during warm-up it behaves like a cumulative
// (unbiased) mean, and it converges to the steady-state EMA as k grows.
// bulk_update folds `repeat` consecutive equal samples in closed form —
//   E' = v*(1 - (1-a)^repeat) + (1-a)^repeat * E
// — which is what makes long idle stretches (runs of zero-count buckets)
// O(1) instead of O(idle time / bucket).
//
// CemaRateEstimator adapts the discrete CEMA to a continuous arrival clock:
// arrivals are counted into fixed-width time buckets; each completed bucket
// contributes one rate sample count/width, and the empty buckets a long gap
// skips over contribute a single bulk_update(0, k). Wired into LI policies
// the estimate makes K = lambda_hat * T track nonstationary traffic (flash
// crowds, ramps, MMPP regime switches) instead of a configured constant.
#pragma once

#include <cstdint>
#include <string>

#include "core/rate_estimator.h"

namespace stale::workload {

// The bias-corrected EMA core. value() is exactly the weighted mean of the
// samples seen so far (geometric weights, newest heaviest).
struct Cema {
  double exponential = 0.0;      // raw EMA accumulator
  double decay_factor = 1.0;     // (1 - alpha)^updates
  std::uint64_t updates = 0;

  void update(double value, double alpha);
  // Equivalent to `repeat` consecutive update(value, alpha) calls, in O(1).
  void bulk_update(double value, std::uint64_t repeat, double alpha);
  double value() const;  // 0 before the first update
};

// Bucketed CEMA rate estimator: alpha is the per-bucket blend weight,
// bucket_width the sampling interval, initial_rate the estimate reported
// before the first bucket completes (callers follow the paper's conservative
// rule and pass the cluster's max throughput, or a near-zero value when
// "treat the board as fresh until evidence arrives" is wanted).
class CemaRateEstimator final : public core::RateEstimator {
 public:
  CemaRateEstimator(double alpha, double bucket_width, double initial_rate);

  void on_arrival(double t) override;
  double rate() const override;
  std::string describe() const override;

  std::uint64_t buckets_closed() const { return cema_.updates; }

 private:
  double alpha_;
  double bucket_;
  double initial_rate_;
  bool started_ = false;
  double bucket_start_ = 0.0;
  std::uint64_t in_bucket_ = 0;
  Cema cema_;
};

// What a caller knows when it builds lambda-hat: the simulator all of it,
// the live dispatcher only T.
struct RateEstimatorContext {
  double update_interval = 1.0;  // T: sets the default W and BUCKET
  // The estimate before any arrival (> 0): the conservative max throughput
  // n in the sim; near zero live, so LI reads the board as fresh (K = 0).
  double initial_rate = 1e-9;
  double capacity = 0.0;        // max throughput; 0 = unknown
  bool has_told_rate = false;   // a configured lambda exists
};

// The one rate-estimator grammar, shared by `staleload_sim --estimator`
// and `staleload_lb --estimator`:
//   told | fixed           null: believe the configured lambda
//   fixed:RATE             a constant RATE, blind to load shifts
//   conservative           a constant at the capacity (the paper's rule)
//   ewma:TAU               moving average with time constant TAU
//   windowed[:W]           count in a sliding window W, W = 4 * max(T, 0.25)
//   cema[:ALPHA[:BUCKET]]  bucketed CEMA, ALPHA = 0.1, BUCKET = max(T, 0.05)/2
// Every number must parse in full, be finite and in range. A bad field, or
// a form the context cannot serve (told/fixed without a told rate,
// conservative without a capacity), throws std::invalid_argument
// "rate_estimator 'SPEC': ..." naming the field or the missing piece.
core::RateEstimatorPtr make_rate_estimator(const std::string& spec,
                                           const RateEstimatorContext& context);

}  // namespace stale::workload
