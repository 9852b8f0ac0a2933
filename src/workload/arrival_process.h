// Arrival processes. The open system model (paper Section 5) is a Poisson
// stream of aggregate rate lambda * n; the update-on-access experiments
// (Sections 5.3-5.4) decompose it into independent per-client streams.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.h"

namespace stale::workload {

// A point process generating successive inter-arrival gaps.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  // The next inter-arrival gap (>= 0).
  virtual double next_gap(sim::Rng& rng) = 0;

  // Long-run mean gap.
  virtual double mean_gap() const = 0;

  virtual std::string describe() const = 0;

  // Rewinds internal state (cursors, modulation clocks) to the construction
  // state so one process object can drive several trials without leaking the
  // previous trial's position. Memoryless processes need no action.
  virtual void reset() {}

  // How many times a finite source (a recorded trace) was exhausted and
  // looped back to its start. Always 0 for generative processes. Callers
  // surface a nonzero count as a warning: a wrapped trace is a documented
  // approximation, not a fresh sample.
  virtual std::uint64_t wraps() const { return 0; }
};

using ArrivalProcessPtr = std::unique_ptr<ArrivalProcess>;

// Poisson process with the given rate (exponential gaps of mean 1/rate).
class PoissonProcess final : public ArrivalProcess {
 public:
  explicit PoissonProcess(double rate);

  double next_gap(sim::Rng& rng) override;
  double mean_gap() const override { return 1.0 / rate_; }
  std::string describe() const override;

 private:
  double rate_;
};

// Update-on-access arrivals: `num_clients` clients, each issuing requests
// separated by independent gaps from `gaps`, merged in (time, client) order.
// Times are absolute, since t + (t_next - t) need not equal t_next.
class ClientArrivals {
 public:
  // num_clients >= 1.
  ClientArrivals(int num_clients, ArrivalProcessPtr gaps)
      : num_clients_(num_clients), gaps_(std::move(gaps)) {}

  // The next request's time. The first call draws every client's first gap
  // in client order; each later call first draws the next gap of the client
  // that issued the previous request.
  double next(sim::Rng& rng);

  // The client that issued the request next() last returned.
  int client() const { return heap_.front().client; }
  int size() const { return num_clients_; }

 private:
  struct Pending {
    double when;
    int client;
    bool after(const Pending& other) const {
      return when != other.when ? when > other.when : client > other.client;
    }
  };

  int num_clients_;
  ArrivalProcessPtr gaps_;
  // Min-heap on (when, client); the front is the request next() last
  // returned, re-timed in place by the following call.
  std::vector<Pending> heap_;
};

}  // namespace stale::workload
