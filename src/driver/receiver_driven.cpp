#include "driver/receiver_driven.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "policy/policy.h"
#include "policy/policy_factory.h"
#include "queueing/metrics.h"
#include "sim/fifo.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "workload/job_size.h"

namespace stale::driver {

namespace {

struct QueuedJob {
  double arrival;
  double size;
};

// Event-kernel cluster with migratable queues. Service is FIFO within a
// server; a steal removes the victim's most recently queued waiting job (the
// youngest — preserving FIFO order for the jobs ahead of it).
class StealingSystem {
 public:
  StealingSystem(const ExperimentConfig& config,
                 const StealingOptions& options, std::uint64_t seed)
      : config_(config),
        options_(options),
        rng_(seed),
        policy_(policy::make_policy(config.policy)),
        job_size_(workload::make_job_size(config.job_size)),
        queues_(static_cast<std::size_t>(config.num_servers)),
        busy_(static_cast<std::size_t>(config.num_servers), false),
        board_(static_cast<std::size_t>(config.num_servers), 0),
        metrics_(config.warmup_jobs) {
    if (options.probe_count < 1) {
      throw std::invalid_argument("StealingOptions: probe_count must be >= 1");
    }
    if (options.migration_delay < 0.0 || options.min_waiting_to_steal < 1) {
      throw std::invalid_argument("StealingOptions: bad thresholds");
    }
  }

  TrialResult run() {
    refresh_handle_ = sim_.schedule_at(
        config_.update_interval,
        [this](sim::Simulator& s) { refresh_board(s); });
    schedule_next_arrival(sim_);
    sim_.run();
    return TrialResult{.mean_response = metrics_.mean_response(),
                       .measured_jobs = metrics_.measured_jobs(),
                       .total_jobs = metrics_.total_jobs(),
                       .sim_end_time = sim_.now()};
  }

  std::uint64_t migrations() const { return migrations_; }

 private:
  int total_load(int server) const {
    const auto& queue = queues_[static_cast<std::size_t>(server)];
    return static_cast<int>(queue.size()) +
           (busy_[static_cast<std::size_t>(server)] ? 1 : 0);
  }

  void refresh_board(sim::Simulator& s) {
    for (std::size_t i = 0; i < queues_.size(); ++i) {
      board_[i] = total_load(static_cast<int>(i));
    }
    board_time_ = s.now();
    ++board_version_;
    refresh_handle_ = s.schedule_after(
        config_.update_interval,
        [this](sim::Simulator& s2) { refresh_board(s2); });
  }

  void schedule_next_arrival(sim::Simulator& s) {
    if (launched_ >= config_.num_jobs) return;
    ++launched_;
    const double gap =
        -std::log(rng_.next_double_open0()) / config_.total_rate();
    s.schedule_after(gap, [this](sim::Simulator& s2) { on_arrival(s2); });
  }

  void on_arrival(sim::Simulator& s) {
    policy::DispatchContext context;
    context.loads = board_;
    context.age = s.now() - board_time_;
    context.lambda_total = config_.believed_total_rate();
    context.phase_length = config_.update_interval;
    context.phase_elapsed = context.age;
    context.info_version = board_version_;
    const int server = policy_->select(context, rng_);

    queues_[static_cast<std::size_t>(server)].push_back(
        QueuedJob{s.now(), job_size_->sample(rng_)});
    if (!busy_[static_cast<std::size_t>(server)]) {
      begin_service(s, server, /*setup_delay=*/0.0);
    }
    schedule_next_arrival(s);
  }

  // Starts the front-of-queue job on `server`, charging an optional setup
  // delay (used for migration transfers).
  void begin_service(sim::Simulator& s, int server, double setup_delay) {
    auto& queue = queues_[static_cast<std::size_t>(server)];
    busy_[static_cast<std::size_t>(server)] = true;
    const QueuedJob job = queue.front();
    s.schedule_after(setup_delay + job.size,
                     [this, server, job](sim::Simulator& s2) {
                       on_departure(s2, server, job);
                     });
  }

  void on_departure(sim::Simulator& s, int server, const QueuedJob& job) {
    metrics_.record(s.now() - job.arrival);
    auto& queue = queues_[static_cast<std::size_t>(server)];
    queue.pop_front();
    if (!queue.empty()) {
      begin_service(s, server, 0.0);
      return;
    }
    busy_[static_cast<std::size_t>(server)] = false;
    if (options_.enabled && try_steal(s, server)) return;
    maybe_finish(s);
  }

  // Probes options_.probe_count random other servers with *current* state
  // and steals the youngest waiting job from the most backlogged one.
  bool try_steal(sim::Simulator& s, int thief) {
    const int n = config_.num_servers;
    int victim = -1;
    int victim_waiting = options_.min_waiting_to_steal - 1;
    for (int probe = 0; probe < options_.probe_count; ++probe) {
      int candidate =
          static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(n - 1)));
      if (candidate >= thief) ++candidate;  // uniform over peers
      const auto& queue = queues_[static_cast<std::size_t>(candidate)];
      const int waiting = busy_[static_cast<std::size_t>(candidate)]
                              ? static_cast<int>(queue.size()) - 1
                              : static_cast<int>(queue.size());
      if (waiting > victim_waiting) {
        victim_waiting = waiting;
        victim = candidate;
      }
    }
    if (victim < 0) return false;

    auto& victim_queue = queues_[static_cast<std::size_t>(victim)];
    const QueuedJob job = victim_queue.back();
    victim_queue.pop_back();
    queues_[static_cast<std::size_t>(thief)].push_back(job);
    ++migrations_;
    begin_service(s, thief, options_.migration_delay);
    return true;
  }

  void maybe_finish(sim::Simulator& s) {
    if (launched_ < config_.num_jobs) return;
    for (bool busy : busy_) {
      if (busy) return;
    }
    for (const auto& queue : queues_) {
      if (!queue.empty()) return;
    }
    s.cancel(refresh_handle_);
  }

  const ExperimentConfig config_;
  const StealingOptions options_;
  sim::Rng rng_;
  policy::PolicyPtr policy_;
  sim::DistributionPtr job_size_;
  sim::Simulator sim_;
  std::vector<sim::Fifo<QueuedJob>> queues_;
  std::vector<bool> busy_;
  std::vector<int> board_;
  double board_time_ = 0.0;
  std::uint64_t board_version_ = 1;
  std::uint64_t launched_ = 0;
  std::uint64_t migrations_ = 0;
  sim::EventHandle refresh_handle_;
  queueing::ResponseMetrics metrics_;
};

}  // namespace

TrialResult run_receiver_driven_trial(const ExperimentConfig& config,
                                      const StealingOptions& options,
                                      std::uint64_t seed) {
  if (config.model != UpdateModel::kPeriodic) {
    throw std::invalid_argument(
        "run_receiver_driven_trial: periodic model only");
  }
  if (config.num_servers < 2) {
    throw std::invalid_argument(
        "run_receiver_driven_trial: stealing needs >= 2 servers");
  }
  StealingSystem system(config, options, seed);
  return system.run();
}

}  // namespace stale::driver
