#include "queueing/load_stats.h"

#include <cmath>
#include <stdexcept>

#include "check/contracts.h"

namespace stale::queueing {

LoadImbalanceStats::LoadImbalanceStats(std::uint64_t stride)
    : stride_(stride), until_sample_(stride) {
  if (stride == 0) {
    throw std::invalid_argument("LoadImbalanceStats: stride must be >= 1");
  }
}

void LoadImbalanceStats::observe(std::span<const int> loads) {
  STALE_DCHECK(until_sample_ >= 1 && until_sample_ <= stride_);
  if (--until_sample_ != 0) return;
  until_sample_ = stride_;
  take_sample(loads);
}

void LoadImbalanceStats::observe(const sim::LevelHistogram& histogram) {
  STALE_DCHECK(until_sample_ >= 1 && until_sample_ <= stride_);
  if (--until_sample_ != 0) return;
  until_sample_ = stride_;
  take_sample(histogram);
}

void LoadImbalanceStats::take_sample(std::span<const int> loads) {
  if (loads.empty()) return;
  double sum = 0.0;
  double sum_sq = 0.0;
  int max = loads[0];
  for (int len : loads) {
    sum += len;
    sum_sq += static_cast<double>(len) * len;
    if (len > max) max = len;
  }
  const double n = static_cast<double>(loads.size());
  const double mean = sum / n;
  const double variance = sum_sq / n - mean * mean;
  // The max of a set always dominates its mean; a violation means the
  // accumulators drifted.
  STALE_DCHECK(static_cast<double>(max) >= mean);
  add_sample(std::sqrt(variance > 0.0 ? variance : 0.0),
             static_cast<double>(max), mean);
}

void LoadImbalanceStats::take_sample(const sim::LevelHistogram& histogram) {
  if (histogram.empty()) return;
  STALE_DCHECK(histogram.stddev() >= 0.0 &&
               histogram.max_level() >= histogram.min_level());
  add_sample(histogram.stddev(), static_cast<double>(histogram.max_level()),
             histogram.mean());
}

void LoadImbalanceStats::add_sample(double stddev, double max, double mean) {
  // The running-mean step of sim::RunningStats::add, the only summary these
  // statistics report, so the results equal RunningStats::mean() bit for bit.
  STALE_DCHECK(!std::isnan(stddev) && !std::isnan(max) && !std::isnan(mean));
  const double k = static_cast<double>(++snapshots_);
  mean_stddev_ += (stddev - mean_stddev_) / k;
  mean_max_ += (max - mean_max_) / k;
  mean_length_ += (mean - mean_length_) / k;
}

}  // namespace stale::queueing
