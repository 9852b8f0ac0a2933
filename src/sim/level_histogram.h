// Bucketed (counted) load representation: the paper's LI math only ever
// depends on *how many servers sit at each queue length*, never on which
// ones, so the level-occupancy histogram is a sufficient statistic for every
// dispatch kernel (Eqs. 2-5). Maintaining it incrementally turns the O(n)
// per-decision scans into O(#levels) — what makes n = 10^6 runs feasible
// (ROADMAP item 2).
//
// LevelHistogram: count of servers at each queue-length level, with O(1)
// add/remove/move and exact integer aggregates (total, sum of levels, sum of
// squared levels — all int64, so derived means/stddevs are deterministic and
// bit-identical to summing the raw vector).
//
// LevelIndex: a LevelHistogram plus per-level member lists, supporting O(1)
// update(server, new_level) and uniform picks within a level / within the
// least-loaded prefix — the second stage of the two-stage samplers the
// bucketed policies use.
//
// Both are plain deterministic containers (D-rules: no unordered containers,
// no host state); picks draw only from sim::Rng.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/rng.h"

namespace stale::sim {

class LevelHistogram {
 public:
  LevelHistogram() = default;

  // Rebuilds the histogram from a raw load vector. O(n).
  void assign(std::span<const int> loads);

  void clear();

  // O(1) amortized (min/max maintenance scans only over emptied levels).
  void add(int level);
  void remove(int level);
  void move(int from_level, int to_level) {
    if (from_level == to_level) return;
    remove(from_level);
    add(to_level);
  }

  std::int64_t count(int level) const {
    return level >= 0 && level < static_cast<int>(counts_.size())
               ? counts_[static_cast<std::size_t>(level)]
               : 0;
  }
  // Servers at levels <= `level` (clamped; `level` < 0 gives 0). O(#levels).
  std::int64_t count_at_or_below(int level) const;

  // Dense counts indexed by level; may carry trailing zeros past max_level().
  std::span<const std::int64_t> counts() const { return counts_; }

  std::int64_t total() const { return total_; }
  bool empty() const { return total_ == 0; }

  // Lowest / highest level with a nonzero count; -1 when empty.
  int min_level() const { return total_ == 0 ? -1 : min_level_; }
  int max_level() const { return total_ == 0 ? -1 : max_level_; }

  // Exact integer aggregates: sum of levels and sum of squared levels over
  // all members. Both fit int64 for any feasible simulation (n <= 2^31,
  // levels bounded by jobs dispatched).
  std::int64_t level_sum() const { return level_sum_; }
  std::int64_t level_sq_sum() const { return level_sq_sum_; }

  // Population mean / stddev over members. Computed from the exact integer
  // sums, so they equal (bit for bit) the same formulas over the raw vector.
  double mean() const {
    if (total_ == 0) return 0.0;
    return static_cast<double>(level_sum_) / static_cast<double>(total_);
  }
  double stddev() const {
    if (total_ == 0) return 0.0;
    const double n = static_cast<double>(total_);
    const double mean_value = static_cast<double>(level_sum_) / n;
    const double variance =
        static_cast<double>(level_sq_sum_) / n - mean_value * mean_value;
    return std::sqrt(variance > 0.0 ? variance : 0.0);
  }

 private:
  std::vector<std::int64_t> counts_;  // counts_[level], dense from 0
  std::int64_t total_ = 0;
  std::int64_t level_sum_ = 0;
  std::int64_t level_sq_sum_ = 0;
  int min_level_ = 0;
  int max_level_ = -1;
};

class LevelIndex {
 public:
  LevelIndex() = default;

  // Rebuilds from a raw load vector: histogram plus per-level member lists
  // (members of a level are kept in unspecified order; picks are uniform
  // regardless). O(n); reuses bucket capacity across rebuilds. When the
  // vector has the same size as the previous build, the retirement mask
  // survives the rebuild (retired servers keep their recorded level but stay
  // out of the histogram and buckets); a size change clears it.
  void build(std::span<const int> loads);

  // Moves one server to a new level. O(1) (swap-remove from the old bucket).
  // On a retired server this only records the level for a later readmit().
  void update(int server, int new_level);

  // Quarantine support (src/health/): a retired server leaves the histogram
  // and its level bucket — every pick_* and aggregate excludes it — while
  // its last known level is remembered so readmit() can restore it in O(1).
  void retire(int server);
  void readmit(int server);
  bool retired(int server) const {
    return !retired_.empty() && retired_[static_cast<std::size_t>(server)] != 0;
  }
  int retired_count() const { return retired_count_; }

  const LevelHistogram& histogram() const { return hist_; }
  int num_servers() const { return static_cast<int>(level_.size()); }
  int level_of(int server) const {
    return level_[static_cast<std::size_t>(server)];
  }

  // Uniform member of a nonempty level. One rng draw.
  int pick_uniform_in_level(int level, Rng& rng) const;

  // Uniform member among the `count` servers of the least-loaded levels
  // (count must be class-aligned-or-less: 1 <= count <= total). One rng
  // draw plus an O(#levels) walk.
  int pick_uniform_in_prefix(std::int64_t count, Rng& rng) const;

  // Uniform member among all servers at levels <= `level` (there must be at
  // least one). One rng draw plus an O(#levels) walk.
  int pick_uniform_at_or_below(int level, Rng& rng) const;

 private:
  LevelHistogram hist_;
  std::vector<std::vector<int>> members_;  // members_[level] = server ids
  std::vector<int> level_;                 // level_[server]
  std::vector<int> pos_;                   // index of server in its bucket
  std::vector<std::uint8_t> retired_;      // 1 = out of hist_ and buckets
  int retired_count_ = 0;
};

}  // namespace stale::sim
