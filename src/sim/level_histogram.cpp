#include "sim/level_histogram.h"

#include <stdexcept>

#include "check/contracts.h"

namespace stale::sim {

void LevelHistogram::assign(std::span<const int> loads) {
  clear();
  for (int level : loads) add(level);
  STALE_DCHECK(total_ == static_cast<std::int64_t>(loads.size()));
}

void LevelHistogram::clear() {
  counts_.assign(counts_.size(), 0);  // keep capacity for rebuilds
  total_ = 0;
  level_sum_ = 0;
  level_sq_sum_ = 0;
  min_level_ = 0;
  max_level_ = -1;
  STALE_DCHECK(empty());
}

void LevelHistogram::add(int level) {
  if (level < 0) {
    throw std::invalid_argument("LevelHistogram: negative level");
  }
  if (level >= static_cast<int>(counts_.size())) {
    counts_.resize(static_cast<std::size_t>(level) + 1, 0);
  }
  if (total_ == 0) {
    min_level_ = level;
    max_level_ = level;
  } else {
    if (level < min_level_) min_level_ = level;
    if (level > max_level_) max_level_ = level;
  }
  ++counts_[static_cast<std::size_t>(level)];
  ++total_;
  level_sum_ += level;
  level_sq_sum_ += static_cast<std::int64_t>(level) * level;
  STALE_DCHECK(min_level_ <= level && level <= max_level_);
  STALE_DCHECK(counts_[static_cast<std::size_t>(level)] <= total_);
}

void LevelHistogram::remove(int level) {
  if (count(level) <= 0) {
    throw std::invalid_argument("LevelHistogram: remove from empty level");
  }
  --counts_[static_cast<std::size_t>(level)];
  --total_;
  level_sum_ -= level;
  level_sq_sum_ -= static_cast<std::int64_t>(level) * level;
  if (total_ == 0) {
    min_level_ = 0;
    max_level_ = -1;
    return;
  }
  while (counts_[static_cast<std::size_t>(min_level_)] == 0) ++min_level_;
  while (counts_[static_cast<std::size_t>(max_level_)] == 0) --max_level_;
  STALE_DCHECK(min_level_ <= max_level_ && total_ > 0);
}

std::int64_t LevelHistogram::count_at_or_below(int level) const {
  if (total_ == 0 || level < min_level_) return 0;
  if (level >= max_level_) return total_;
  std::int64_t below = 0;
  for (int l = min_level_; l <= level; ++l) {
    below += counts_[static_cast<std::size_t>(l)];
  }
  return below;
}

void LevelIndex::build(std::span<const int> loads) {
  if (retired_.size() != loads.size()) {
    retired_.assign(loads.size(), 0);
    retired_count_ = 0;
  }
  hist_.clear();
  for (std::vector<int>& bucket : members_) bucket.clear();
  level_.resize(loads.size());
  pos_.resize(loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const int level = loads[i];
    level_[i] = level;
    if (retired_[i] != 0) {
      pos_[i] = -1;
      continue;
    }
    hist_.add(level);
    if (level >= static_cast<int>(members_.size())) {
      members_.resize(static_cast<std::size_t>(level) + 1);
    }
    std::vector<int>& bucket = members_[static_cast<std::size_t>(level)];
    pos_[i] = static_cast<int>(bucket.size());
    bucket.push_back(static_cast<int>(i));
  }
  STALE_DCHECK(hist_.total() + retired_count_ ==
               static_cast<std::int64_t>(loads.size()));
}

void LevelIndex::update(int server, int new_level) {
  const auto s = static_cast<std::size_t>(server);
  if (!retired_.empty() && retired_[s] != 0) {
    if (new_level < 0) {
      throw std::invalid_argument("LevelIndex: negative level");
    }
    level_[s] = new_level;  // remembered for readmit()
    return;
  }
  const int old_level = level_[s];
  if (old_level == new_level) return;
  if (new_level < 0) {
    throw std::invalid_argument("LevelIndex: negative level");
  }
  std::vector<int>& from = members_[static_cast<std::size_t>(old_level)];
  const int moved = from.back();
  const int hole = pos_[s];
  from[static_cast<std::size_t>(hole)] = moved;
  pos_[static_cast<std::size_t>(moved)] = hole;
  from.pop_back();
  if (new_level >= static_cast<int>(members_.size())) {
    members_.resize(static_cast<std::size_t>(new_level) + 1);
  }
  std::vector<int>& to = members_[static_cast<std::size_t>(new_level)];
  pos_[s] = static_cast<int>(to.size());
  to.push_back(server);
  level_[s] = new_level;
  hist_.move(old_level, new_level);
  STALE_DCHECK(to[static_cast<std::size_t>(pos_[s])] == server);
}

void LevelIndex::retire(int server) {
  const auto s = static_cast<std::size_t>(server);
  if (server < 0 || s >= level_.size()) {
    throw std::invalid_argument("LevelIndex: retire out of range");
  }
  if (retired_.size() != level_.size()) retired_.resize(level_.size(), 0);
  if (retired_[s] != 0) {
    throw std::invalid_argument("LevelIndex: retire of retired server");
  }
  const int level = level_[s];
  std::vector<int>& bucket = members_[static_cast<std::size_t>(level)];
  const int moved = bucket.back();
  const int hole = pos_[s];
  bucket[static_cast<std::size_t>(hole)] = moved;
  pos_[static_cast<std::size_t>(moved)] = hole;
  bucket.pop_back();
  hist_.remove(level);
  retired_[s] = 1;
  pos_[s] = -1;
  ++retired_count_;
  STALE_DCHECK(retired_count_ <= static_cast<int>(level_.size()));
}

void LevelIndex::readmit(int server) {
  const auto s = static_cast<std::size_t>(server);
  if (server < 0 || s >= level_.size()) {
    throw std::invalid_argument("LevelIndex: readmit out of range");
  }
  if (retired_.size() != level_.size() || retired_[s] == 0) {
    throw std::invalid_argument("LevelIndex: readmit of live server");
  }
  const int level = level_[s];
  if (level >= static_cast<int>(members_.size())) {
    members_.resize(static_cast<std::size_t>(level) + 1);
  }
  std::vector<int>& bucket = members_[static_cast<std::size_t>(level)];
  pos_[s] = static_cast<int>(bucket.size());
  bucket.push_back(server);
  hist_.add(level);
  retired_[s] = 0;
  --retired_count_;
  STALE_DCHECK(retired_count_ >= 0);
  STALE_DCHECK(bucket[static_cast<std::size_t>(pos_[s])] == server);
}

int LevelIndex::pick_uniform_in_level(int level, Rng& rng) const {
  const std::int64_t size = hist_.count(level);
  if (size <= 0) {
    throw std::invalid_argument("LevelIndex: pick from empty level");
  }
  const auto pick = rng.next_below(static_cast<std::uint64_t>(size));
  return members_[static_cast<std::size_t>(level)][pick];
}

int LevelIndex::pick_uniform_in_prefix(std::int64_t count, Rng& rng) const {
  if (count < 1 || count > hist_.total()) {
    throw std::invalid_argument("LevelIndex: bad prefix count");
  }
  auto pick = static_cast<std::int64_t>(
      rng.next_below(static_cast<std::uint64_t>(count)));
  for (int level = hist_.min_level(); level <= hist_.max_level(); ++level) {
    const std::int64_t size = hist_.count(level);
    if (pick < size) {
      return members_[static_cast<std::size_t>(level)]
                     [static_cast<std::size_t>(pick)];
    }
    pick -= size;
  }
  throw std::logic_error("LevelIndex: prefix walk overran the histogram");
}

int LevelIndex::pick_uniform_at_or_below(int level, Rng& rng) const {
  const std::int64_t size = hist_.count_at_or_below(level);
  if (size <= 0) {
    throw std::invalid_argument("LevelIndex: no members at or below level");
  }
  auto pick = static_cast<std::int64_t>(
      rng.next_below(static_cast<std::uint64_t>(size)));
  for (int l = hist_.min_level(); l <= level; ++l) {
    const std::int64_t bucket = hist_.count(l);
    if (pick < bucket) {
      return members_[static_cast<std::size_t>(l)]
                     [static_cast<std::size_t>(pick)];
    }
    pick -= bucket;
  }
  throw std::logic_error("LevelIndex: at-or-below walk overran the histogram");
}

}  // namespace stale::sim
