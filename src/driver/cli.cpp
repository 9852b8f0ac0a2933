#include "driver/cli.h"

#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "policy/policy_factory.h"
#include "runtime/thread_pool.h"

namespace stale::driver {

namespace {

const std::vector<sim::Flag>& standard_flags() {
  static const std::vector<sim::Flag> kFlags = {
      {"paper", "", "paper-fidelity run lengths (500k jobs, 10 trials)"},
      {"fast", "", "smoke-test run lengths (20k jobs, 2 trials)"},
      {"csv", "", "machine-readable CSV output"},
      {"num-jobs", "N", "jobs per trial (>= 1)"},
      {"warmup", "N", "jobs discarded before measuring (< --num-jobs)"},
      {"trials", "N", "independent trials (>= 1)"},
      {"seed", "S", "base seed (>= 0)"},
      {"jobs", "N", "worker threads (default STALE_JOBS, else all cores)"},
      {"fault-spec", "SPEC", "fault spec, e.g. crash=0.01,loss=0.2,cutoff=2T"},
      {"crash-rate", "R", "override the fault spec's crash rate"},
      {"update-loss", "P", "override the fault spec's update-loss probability"},
      {"max-staleness", "X", "override the fault spec's cutoff (5.0 or 2T)"},
      {"board-repr", "REPR", "board representation: auto|vector|bucketed"},
      {"churn-spec", "SPEC", "churn spec, e.g. restart=30,leave=0.01"},
      {"dispatchers", "D", "cooperating dispatchers over one cluster (>= 1)"},
      {"dispatcher-split", "SPLIT", "arrival split: uniform|weighted"},
      {"token-budget", "B", "JIQ per-dispatcher idle-token cap (0 = none)"},
  };
  return kFlags;
}

}  // namespace

sim::FlagTable Cli::flag_table(const char* argv0,
                               const std::vector<sim::Flag>& extra) {
  sim::FlagTable table;
  const std::string path = argv0 == nullptr ? "staleload" : argv0;
  table.program = path.substr(path.find_last_of('/') + 1);
  table.summary =
      "Simulator experiment: the run-scale and fault flags every bench "
      "shares, then its own.";
  table.flags = standard_flags();
  table.flags.insert(table.flags.end(), extra.begin(), extra.end());
  return table;
}

Cli::Cli(int argc, const char* const* argv,
         const std::vector<sim::Flag>& extra)
    : sim::FlagParser(argc, argv,
                      flag_table(argc > 0 ? argv[0] : nullptr, extra)) {
  if (!help_requested() && has("paper") && has("fast")) {
    throw std::invalid_argument("--paper and --fast are exclusive");
  }
}

int Cli::jobs() const {
  if (has("jobs")) {
    const int jobs = integer<int>("jobs", 0);
    if (jobs < 1) {
      throw std::invalid_argument("--jobs must be >= 1");
    }
    return jobs;
  }
  return runtime::ThreadPool::default_jobs();
}

void Cli::apply_run_scale(ExperimentConfig& config) const {
  if (has("paper")) {
    config.num_jobs = 500'000;
    config.warmup_jobs = 100'000;
    config.trials = 10;
  } else if (has("fast")) {
    config.num_jobs = 20'000;
    config.warmup_jobs = 5'000;
    config.trials = 2;
  } else {
    config.num_jobs = 120'000;
    config.warmup_jobs = 30'000;
    config.trials = 5;
  }
  config.num_jobs = integer<std::uint64_t>("num-jobs", config.num_jobs);
  if (config.num_jobs < 1) {
    throw std::invalid_argument("--num-jobs must be >= 1");
  }
  config.warmup_jobs = integer<std::uint64_t>("warmup", config.warmup_jobs);
  if (config.warmup_jobs >= config.num_jobs) {
    throw std::invalid_argument("--warmup must be < --num-jobs");
  }
  config.trials = integer<int>("trials", config.trials);
  if (config.trials < 1) {
    throw std::invalid_argument("--trials must be >= 1");
  }
  config.base_seed = integer<std::uint64_t>("seed", config.base_seed);
  config.jobs = jobs();
  if (has("board-repr")) {
    config.board_repr = policy::parse_board_repr(get("board-repr", "auto"));
  }
  config.dispatchers = integer<int>("dispatchers", config.dispatchers);
  if (config.dispatchers < 1) {
    throw std::invalid_argument("--dispatchers must be >= 1");
  }
  if (has("dispatcher-split")) {
    config.dispatcher_split =
        dispatch::parse_dispatcher_split(get("dispatcher-split", "uniform"));
  }
  config.jiq_token_budget =
      integer<int>("token-budget", config.jiq_token_budget);
  if (config.jiq_token_budget < 0) {
    throw std::invalid_argument("--token-budget must be >= 0");
  }
  apply_faults(config);
  if (has("churn-spec")) {
    config.churn = health::ChurnSpec::parse(get("churn-spec", ""));
  }
}

void Cli::apply_faults(ExperimentConfig& config) const {
  if (has("fault-spec")) {
    config.fault = fault::FaultSpec::parse(get("fault-spec", ""));
  }
  if (has("crash-rate")) {
    config.fault.crash_rate = number("crash-rate", 0.0);
  }
  if (has("update-loss")) {
    config.fault.update_loss = number("update-loss", 0.0);
  }
  if (has("max-staleness")) {
    // Accepts the same forms as the spec's cutoff key: absolute time ("5.0")
    // or a multiple of the update interval ("2T").
    const sim::Span cutoff =
        sim::parse_span(get("max-staleness", ""), "", "--max-staleness");
    config.fault.cutoff_value = cutoff.value;
    config.fault.cutoff_in_intervals = cutoff.in_intervals;
  }
  config.fault.validate();
}

std::string Cli::scale_description() const {
  ExperimentConfig probe;
  apply_run_scale(probe);
  std::ostringstream os;
  os << (has("paper") ? "paper" : has("fast") ? "fast" : "default")
     << " scale: " << probe.num_jobs << " jobs (" << probe.warmup_jobs
     << " warmup), " << probe.trials << " trials, seed " << probe.base_seed
     << ", " << probe.jobs << " worker thread(s)";
  return os.str();
}

}  // namespace stale::driver
