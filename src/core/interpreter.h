// LoadInterpreter: the library's stateful public facade.
//
// A dispatcher embedding this library feeds it (a) the most recent load
// report, (b) that report's age, and (c) an arrival-rate estimate, and asks
// for either the interpreted probability vector or a sampled server. This is
// the API a real load balancer (DNS rotator, L4 switch, cluster scheduler)
// would call per request; the simulation policies in policy/ are thin
// wrappers over the same math.
//
// Example:
//   LoadInterpreter li(LoadInterpreter::Options{
//       .mode = LiMode::kBasic,
//       .num_servers = 8,
//       .rate = RateSource::conservative_max(8.0)});
//   li.report_loads(loads, /*age=*/0.25);
//   int target = li.pick(rng);
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/aggressive_schedule.h"
#include "core/load_interpretation.h"
#include "core/rate_estimator.h"
#include "core/sampler.h"
#include "sim/rng.h"

namespace stale::core {

enum class LiMode {
  kBasic,       // equalize by end of window (Eqs. 2-4)
  kAggressive,  // stationary water-filling group (Eq. 5 rule)
  kHybrid,      // deficit-proportional then uniform (Section 4.1.1)
};

// Where the interpreter gets its arrival-rate estimate.
struct RateSource {
  // Exactly one of these is set.
  std::optional<double> fixed;          // told a constant rate
  RateEstimatorPtr estimator;           // learned online

  static RateSource told(double lambda_total);
  static RateSource conservative_max(double max_throughput);
  static RateSource ewma(double time_constant, double initial_rate);
  static RateSource windowed(double window, double initial_rate);
};

class LoadInterpreter {
 public:
  struct Options {
    LiMode mode = LiMode::kBasic;
    int num_servers = 0;               // required
    RateSource rate;                   // required
    // Optional per-server service rates for heterogeneous clusters
    // (basic mode only); empty = homogeneous.
    std::vector<double> server_rates;
  };

  explicit LoadInterpreter(Options options);

  // Feeds a load report: `loads[i]` is server i's queue length as of `age`
  // time units ago (age >= 0). May be called as often as reports arrive.
  void report_loads(std::span<const int> loads, double age);
  void report_loads(std::span<const double> loads, double age);

  // Notifies the interpreter that a request arrived at absolute time `t`
  // (drives online rate estimators and, between reports, ages the last
  // report). Optional when the rate is fixed and ages are supplied directly.
  void on_arrival(double t);

  // The interpreted probability vector for the current report. Recomputed
  // lazily and cached until the next report_loads / on_arrival. In basic
  // mode the sorted board is kept until the next report_loads, so an
  // on_arrival that only ages the report re-solves without sorting.
  const std::vector<double>& probabilities();

  // Samples a server from probabilities().
  int pick(sim::Rng& rng);

  double current_rate_estimate() const;
  double report_age() const { return age_; }

 private:
  void invalidate() { dirty_ = true; }
  void recompute();

  Options options_;
  std::vector<double> loads_;
  BasicLiSolver basic_solver_;  // basic mode: loads_ sorted
  bool board_dirty_ = true;     // loads_ changed since basic_solver_ sorted
  double age_ = 0.0;
  double report_time_ = -1.0;  // absolute time of last report, if known
  double last_arrival_time_ = -1.0;
  std::vector<double> probabilities_;
  DiscreteSampler sampler_;
  bool dirty_ = true;
};

}  // namespace stale::core
