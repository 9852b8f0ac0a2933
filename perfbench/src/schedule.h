// Open-loop arrival schedule for the benchmark's live client.
//
// Every job has an absolute intended send time, measured from the start of
// the run. The client sends each job when
// its time comes, however late earlier sends were, and times the job's
// response from the intended time. A stall in the client or the dispatcher
// therefore shows up as a burst of catch-up sends and as latency charged to
// every job the stall delayed, instead of silently lowering the offered load.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

namespace perfbench {

// Intended send times in [0, window) seconds of a Poisson stream at `rate`
// jobs per second, conditioned on its count: llround(rate * window) times
// drawn uniformly on the window and sorted, which is exactly how a Poisson
// process's arrivals fall once their number is given. Fixing the count keeps
// the offered load the same in every run; an unconditioned count swings by
// 1/sqrt(count), and queueing at 0.8 load amplifies that fivefold in the
// response times. The same seed gives the same schedule.
inline std::vector<double> poisson_schedule(double rate, double window,
                                            std::uint64_t seed) {
  if (!(rate > 0.0) || !(window > 0.0)) {
    throw std::invalid_argument(
        "poisson_schedule: rate and window must be > 0");
  }
  std::mt19937_64 gen(seed);
  std::vector<double> intended(
      static_cast<std::size_t>(std::llround(rate * window)));
  for (double& t : intended) {
    // 53 random bits -> u in [0, 1).
    t = static_cast<double>(gen() >> 11) * 0x1.0p-53 * window;
  }
  std::sort(intended.begin(), intended.end());
  return intended;
}

// Index one past the last job due at `now`, starting from `next`: the client
// sends jobs [next, due_until(...)) in one burst.
inline std::size_t due_until(const std::vector<double>& intended,
                             std::size_t next, double now) {
  while (next < intended.size() && intended[next] <= now) ++next;
  return next;
}

}  // namespace perfbench
