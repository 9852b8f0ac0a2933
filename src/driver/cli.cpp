#include "driver/cli.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "policy/policy_factory.h"
#include "runtime/thread_pool.h"

namespace stale::driver {

namespace {

const std::vector<std::string> kStandardSwitches = {"paper", "fast", "csv"};
const std::vector<std::string> kStandardFlags = {
    "num-jobs",      "warmup",     "trials",       "seed",
    "jobs",          "fault-spec", "crash-rate",   "update-loss",
    "max-staleness", "board-repr", "churn-spec",   "dispatchers",
    "dispatcher-split",            "token-budget"};

bool contains(const std::vector<std::string>& list, const std::string& item) {
  return std::find(list.begin(), list.end(), item) != list.end();
}

}  // namespace

Cli::Cli(int argc, const char* const* argv,
         const std::vector<std::string>& extra_flags,
         const std::vector<std::string>& extra_switches) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("Cli: unexpected positional arg '" + arg +
                                  "'");
    }
    arg = arg.substr(2);
    std::string value = "1";
    const auto eq = arg.find('=');
    bool has_inline_value = eq != std::string::npos;
    if (has_inline_value) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    const bool is_switch =
        contains(kStandardSwitches, arg) || contains(extra_switches, arg);
    const bool is_flag =
        contains(kStandardFlags, arg) || contains(extra_flags, arg);
    if (!is_switch && !is_flag) {
      throw std::invalid_argument("Cli: unknown flag '--" + arg + "'");
    }
    if (is_switch && has_inline_value) {
      throw std::invalid_argument("Cli: switch '--" + arg +
                                  "' does not take a value");
    }
    if (is_flag && !has_inline_value) {
      if (i + 1 >= argc) {
        throw std::invalid_argument("Cli: flag '--" + arg +
                                    "' expects a value");
      }
      value = argv[++i];
    }
    values_[arg] = value;
  }
  if (has("paper") && has("fast")) {
    throw std::invalid_argument("Cli: --paper and --fast are exclusive");
  }
}

bool Cli::has(const std::string& flag) const {
  return values_.count(flag) > 0;
}

std::string Cli::get(const std::string& flag,
                     const std::string& fallback) const {
  const auto it = values_.find(flag);
  return it == values_.end() ? fallback : it->second;
}

double Cli::get_double(const std::string& flag, double fallback) const {
  const auto it = values_.find(flag);
  if (it == values_.end()) return fallback;
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(it->second, &pos);
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("Cli: value for --" + flag +
                                " is out of range: '" + it->second + "'");
  } catch (const std::exception&) {
    throw std::invalid_argument("Cli: bad numeric value for --" + flag +
                                ": '" + it->second + "'");
  }
  if (pos != it->second.size()) {
    throw std::invalid_argument("Cli: bad numeric value for --" + flag +
                                ": '" + it->second + "'");
  }
  return value;
}

std::int64_t Cli::get_int(const std::string& flag,
                          std::int64_t fallback) const {
  const auto it = values_.find(flag);
  if (it == values_.end()) return fallback;
  std::size_t pos = 0;
  std::int64_t value = 0;
  try {
    value = std::stoll(it->second, &pos);
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("Cli: value for --" + flag +
                                " is out of range: '" + it->second + "'");
  } catch (const std::exception&) {
    throw std::invalid_argument("Cli: bad integer value for --" + flag +
                                ": '" + it->second + "'");
  }
  if (pos != it->second.size()) {
    throw std::invalid_argument("Cli: bad integer value for --" + flag +
                                ": '" + it->second + "'");
  }
  return value;
}

int Cli::jobs() const {
  if (has("jobs")) {
    const int jobs = static_cast<int>(get_int("jobs", 0));
    if (jobs < 1) {
      throw std::invalid_argument("Cli: --jobs must be >= 1");
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
  const std::int64_t num_jobs =
      get_int("num-jobs", static_cast<std::int64_t>(config.num_jobs));
  if (num_jobs < 1) {
    throw std::invalid_argument("Cli: --num-jobs must be >= 1");
  }
  config.num_jobs = static_cast<std::uint64_t>(num_jobs);
  const std::int64_t warmup =
      get_int("warmup", static_cast<std::int64_t>(config.warmup_jobs));
  if (warmup < 0 || static_cast<std::uint64_t>(warmup) >= config.num_jobs) {
    throw std::invalid_argument(
        "Cli: --warmup must be >= 0 and < --num-jobs");
  }
  config.warmup_jobs = static_cast<std::uint64_t>(warmup);
  const std::int64_t trials = get_int("trials", config.trials);
  if (trials < 1) {
    throw std::invalid_argument("Cli: --trials must be >= 1");
  }
  config.trials = static_cast<int>(trials);
  const std::int64_t seed =
      get_int("seed", static_cast<std::int64_t>(config.base_seed));
  if (seed < 0) {
    throw std::invalid_argument("Cli: --seed must be >= 0");
  }
  config.base_seed = static_cast<std::uint64_t>(seed);
  config.jobs = jobs();
  if (has("board-repr")) {
    config.board_repr = policy::parse_board_repr(get("board-repr", "auto"));
  }
  const std::int64_t dispatchers =
      get_int("dispatchers", config.dispatchers);
  if (dispatchers < 1) {
    throw std::invalid_argument("Cli: --dispatchers must be >= 1");
  }
  config.dispatchers = static_cast<int>(dispatchers);
  if (has("dispatcher-split")) {
    config.dispatcher_split =
        dispatch::parse_dispatcher_split(get("dispatcher-split", "uniform"));
  }
  const std::int64_t token_budget =
      get_int("token-budget", config.jiq_token_budget);
  if (token_budget < 0) {
    throw std::invalid_argument("Cli: --token-budget must be >= 0");
  }
  config.jiq_token_budget = static_cast<int>(token_budget);
  apply_faults(config);
  if (has("churn-spec")) {
    config.churn = health::ChurnSpec::parse(get("churn-spec", ""));
  }
  // Surface the flag-level conflicts here, where the message can name the
  // offending flags rather than config fields.
  if (config.board_repr == policy::BoardRepr::kBucketed &&
      config.fault.any()) {
    throw std::invalid_argument(
        "Cli: --board-repr bucketed cannot be combined with --fault-spec "
        "(or --crash-rate/--update-loss/--max-staleness): fault injection "
        "reshapes probabilities per server, which the bucketed "
        "representation cannot express — drop one of the two flags, or use "
        "--churn-spec, whose health layer keeps the bucketed path eligible");
  }
  if (config.churn.any() && config.fault.any()) {
    throw std::invalid_argument(
        "Cli: --churn-spec and --fault-spec are mutually exclusive (the "
        "fault path hands the dispatcher ground-truth liveness; the churn "
        "path makes it earn one through the health subsystem)");
  }
}

void Cli::apply_faults(ExperimentConfig& config) const {
  if (has("fault-spec")) {
    config.fault = fault::FaultSpec::parse(get("fault-spec", ""));
  }
  if (has("crash-rate")) {
    config.fault.crash_rate = get_double("crash-rate", 0.0);
  }
  if (has("update-loss")) {
    config.fault.update_loss = get_double("update-loss", 0.0);
  }
  if (has("max-staleness")) {
    // Accepts the same forms as the spec's cutoff key: absolute time ("5.0")
    // or a multiple of the update interval ("2T").
    const fault::FaultSpec parsed =
        fault::FaultSpec::parse("cutoff=" + get("max-staleness", ""));
    config.fault.cutoff_value = parsed.cutoff_value;
    config.fault.cutoff_in_intervals = parsed.cutoff_in_intervals;
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
