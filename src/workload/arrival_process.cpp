#include "workload/arrival_process.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace stale::workload {

PoissonProcess::PoissonProcess(double rate) : rate_(rate) {
  if (rate <= 0.0) {
    throw std::invalid_argument("PoissonProcess: rate must be > 0");
  }
}

double PoissonProcess::next_gap(sim::Rng& rng) {
  return -std::log(rng.next_double_open0()) / rate_;
}

std::string PoissonProcess::describe() const {
  std::ostringstream os;
  os << "poisson(rate=" << rate_ << ")";
  return os.str();
}

double ClientArrivals::next(sim::Rng& rng) {
  const auto later = [](const Pending& a, const Pending& b) {
    return a.after(b);
  };
  if (heap_.empty()) {
    heap_.reserve(static_cast<std::size_t>(num_clients_));
    for (int c = 0; c < num_clients_; ++c) {
      heap_.push_back({gaps_->next_gap(rng), c});
    }
    std::make_heap(heap_.begin(), heap_.end(), later);
    return heap_.front().when;
  }
  // Re-time the client that fired last and sift it down to its place.
  const Pending moved{heap_.front().when + gaps_->next_gap(rng),
                      heap_.front().client};
  const std::size_t size = heap_.size();
  std::size_t hole = 0;
  for (std::size_t child = 1; child < size; child = 2 * hole + 1) {
    if (child + 1 < size && heap_[child].after(heap_[child + 1])) ++child;
    if (!moved.after(heap_[child])) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = moved;
  return heap_.front().when;
}

}  // namespace stale::workload
