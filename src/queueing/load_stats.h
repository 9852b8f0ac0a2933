// Queue-length imbalance instrumentation: snapshots the cluster's
// queue-length vector at (Poisson) arrival epochs — by PASTA these samples
// are unbiased estimates of the time-average state — and accumulates
// dispersion statistics. This makes the herd effect directly visible: under
// a herding policy the *spread* of queue lengths explodes long before the
// mean does. Backs the ablation_herd_imbalance bench.
#pragma once

#include <cstdint>
#include <span>

#include "sim/level_histogram.h"

namespace stale::queueing {

class LoadImbalanceStats {
 public:
  // Samples every `stride`-th observe() call (stride >= 1); pass the
  // pre-dispatch load vector of each arrival.
  explicit LoadImbalanceStats(std::uint64_t stride = 1);

  void observe(std::span<const int> loads);

  // Bucketed variant: same statistics in O(#levels) from the histogram's
  // exact integer sums — bit-identical to the vector overload on the same
  // snapshot (both reduce to the identical double formulas over exact
  // integer sums).
  void observe(const sim::LevelHistogram& histogram);

  // Across all sampled snapshots: the within-snapshot standard deviation of
  // queue lengths (averaged), the mean per-snapshot maximum, and the mean
  // queue length.
  double mean_within_snapshot_stddev() const { return mean_stddev_; }
  double mean_snapshot_max() const { return mean_max_; }
  double mean_queue_length() const { return mean_length_; }
  std::uint64_t snapshots() const { return snapshots_; }

 private:
  void take_sample(std::span<const int> loads);
  void take_sample(const sim::LevelHistogram& histogram);
  void add_sample(double stddev, double max, double mean);

  std::uint64_t stride_;
  std::uint64_t until_sample_;  // observe() calls left to the next sample
  std::uint64_t snapshots_ = 0;
  double mean_stddev_ = 0.0;
  double mean_max_ = 0.0;
  double mean_length_ = 0.0;
};

}  // namespace stale::queueing
