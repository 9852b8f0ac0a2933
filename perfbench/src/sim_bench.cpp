// perfbench_sim: the simulator half of the repository benchmark.
//
//   perfbench_sim --workload NAME --seed S (--seconds X | --trials N)
//                 --trace 0|1
//
// Workloads (see perfbench/README.md for why each exists):
//   sim_periodic_n100     periodic board, vector, n = 100, basic_li
//   sim_individual_n1000  individual board, vector, n = 1000, basic_li
//   sim_scale_d4          periodic boards, bucketed, n = 100000, D = 4
// All three run lambda = 0.9 and T = 8 mean service times.
//
// --trace 0 runs driver::run_trial back to back, trial seeds
// sim::trial_seed(S, k), until --seconds of trials have run (or exactly
// --trials trials), and reports each trial's wall and CPU time and outputs.
// Before each trial it also times the engine's set-up: run_trial on a
// one-job trial, repeated.
//
// --trace 1 runs, per trial, a rebuilt copy of the engine's arrival loop with
// a steady_clock lap at every call into a layer, then run_trial on the same
// seed. The rebuilt loop makes the same calls in the same order, so its
// mean_response and queue stddev must equal run_trial's bit for bit; the
// output marks each trial 1 (identical) or 0.
//
// Output is one JSON line of raw measurements; perfbench/run.py turns it into
// metrics and checks the outputs against perfbench/reference.json.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dispatch/dispatcher_set.h"
#include "driver/experiment.h"
#include "driver/trial_workload.h"
#include "loadinfo/individual_board.h"
#include "loadinfo/periodic_board.h"
#include "policy/policy.h"
#include "policy/policy_factory.h"
#include "queueing/cluster.h"
#include "queueing/load_stats.h"
#include "queueing/metrics.h"
#include "sim/rng.h"

namespace {

using Clock = std::chrono::steady_clock;
namespace driver = stale::driver;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// The three simulator workloads. Trial lengths are fixed per workload so a
// trial's outputs depend only on its seed; the run length only changes how
// many trials fit.
driver::ExperimentConfig make_config(const std::string& workload) {
  driver::ExperimentConfig config;
  config.lambda = 0.9;
  config.update_interval = 8.0;
  config.policy = "basic_li";
  config.keep_response_samples = true;
  config.trials = 1;
  if (workload == "sim_periodic_n100") {
    config.num_servers = 100;
    config.model = driver::UpdateModel::kPeriodic;
    config.board_repr = stale::policy::BoardRepr::kVector;
    config.num_jobs = 200'000;
    config.warmup_jobs = 50'000;
  } else if (workload == "sim_individual_n1000") {
    config.num_servers = 1000;
    config.model = driver::UpdateModel::kIndividual;
    config.board_repr = stale::policy::BoardRepr::kVector;
    config.num_jobs = 20'000;
    config.warmup_jobs = 5'000;
  } else if (workload == "sim_scale_d4") {
    config.num_servers = 100'000;
    config.model = driver::UpdateModel::kPeriodic;
    config.board_repr = stale::policy::BoardRepr::kBucketed;
    config.dispatchers = 4;
    config.num_jobs = 1'500'000;
    config.warmup_jobs = 500'000;
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return config;
}

// Accumulated span time per layer, in ns, over every traced arrival.
struct Spans {
  std::int64_t draw = 0;       // workload: next_gap + size sample
  std::int64_t sync = 0;       // loadinfo: board sync / sync_all_to
  std::int64_t context = 0;    // loadinfo: loads(), age()/mean_age(), version
  std::int64_t split = 0;      // dispatch: ArrivalSplitter::pick
  std::int64_t select = 0;     // policy: SelectionPolicy::select
  std::int64_t advance = 0;    // queueing: Cluster::advance_to
  std::int64_t imbalance = 0;  // queueing: LoadImbalanceStats::observe
  std::int64_t assign = 0;     // queueing: Cluster::assign
  std::int64_t metrics = 0;    // queueing: ResponseMetrics::record
  std::int64_t loop = 0;       // the loop's own glue between layer calls
  std::int64_t setup = 0;      // construction before the first arrival
  std::uint64_t arrivals = 0;
  std::uint64_t versions = 0;  // board version changes seen by the policy
};

// Chained laps: each lap charges the time since the previous one to one
// layer, so the layer spans partition the loop's wall time.
class Laps {
 public:
  void lap(std::int64_t& into) {
    const Clock::time_point now = Clock::now();
    into += std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_)
                .count();
    last_ = now;
  }

 private:
  Clock::time_point last_ = Clock::now();
};

struct TracedOutcome {
  double mean_response = 0.0;
  double queue_stddev = 0.0;
};

// run_board_trial (src/driver/experiment.cpp) for the periodic and
// individual models without an online rate estimator, rebuilt from public
// calls with a lap around each one.
TracedOutcome traced_board_trial(const driver::ExperimentConfig& config,
                                 std::uint64_t seed, Spans& spans) {
  Laps laps;
  stale::sim::Rng rng(seed);
  stale::queueing::Cluster cluster(config.num_servers, 0.0);
  stale::queueing::ResponseMetrics metrics(config.warmup_jobs,
                                           config.keep_response_samples);
  const auto policy = stale::policy::make_policy(config.policy);
  driver::TrialWorkload workload = driver::make_trial_workload(config);
  const double believed_rate = config.believed_total_rate();
  const bool individual_model =
      config.model == driver::UpdateModel::kIndividual;
  stale::loadinfo::PeriodicBoard board(config.num_servers,
                                       config.update_interval);
  stale::sim::Rng offsets_rng = rng.split();
  stale::loadinfo::IndividualBoard individual(
      config.num_servers, config.update_interval, offsets_rng);
  stale::queueing::LoadImbalanceStats imbalance;
  laps.lap(spans.setup);

  std::uint64_t last_version = 0;
  double t = 0.0;
  for (std::uint64_t job = 0; job < config.num_jobs; ++job) {
    laps.lap(spans.loop);
    t += workload.arrivals->next_gap(rng);
    laps.lap(spans.draw);

    stale::policy::DispatchContext context;
    context.lambda_total = believed_rate;
    if (individual_model) {
      individual.sync(cluster, t);
      laps.lap(spans.sync);
      context.loads = individual.loads();
      context.age = individual.mean_age(t);
      context.info_version = individual.version();
    } else {
      board.sync(cluster, t);
      laps.lap(spans.sync);
      context.loads = board.loads();
      context.age = board.age(t);
      context.phase_length = board.phase_length();
      context.phase_elapsed = context.age;
      context.info_version = board.version();
    }
    laps.lap(spans.context);
    if (context.info_version != last_version) {
      last_version = context.info_version;
      ++spans.versions;
    }

    const int server = policy->select(context, rng);
    laps.lap(spans.select);
    const double size = workload.sizes->sample(rng);
    laps.lap(spans.draw);
    cluster.advance_to(t);
    laps.lap(spans.advance);
    if (job >= config.warmup_jobs) {
      imbalance.observe(cluster.loads());
      laps.lap(spans.imbalance);
    }
    const double departure = cluster.assign(t, server, size);
    laps.lap(spans.assign);
    metrics.record(departure - t);
    laps.lap(spans.metrics);
  }
  spans.arrivals += config.num_jobs;
  return {metrics.mean_response(), imbalance.mean_within_snapshot_stddev()};
}

// run_multi_dispatcher_trial (src/driver/multi_dispatcher.cpp) for D > 1
// periodic bucketed boards without churn, JIQ or an online rate estimator.
TracedOutcome traced_multi_trial(const driver::ExperimentConfig& config,
                                 std::uint64_t seed, Spans& spans) {
  Laps laps;
  const int D = config.dispatchers;
  stale::sim::Rng rng(seed);
  stale::queueing::Cluster cluster(
      std::vector<double>(static_cast<std::size_t>(config.num_servers), 1.0),
      0.0);
  stale::queueing::ResponseMetrics metrics(config.warmup_jobs,
                                           config.keep_response_samples);
  std::vector<stale::policy::PolicyPtr> policies;
  for (int d = 0; d < D; ++d) {
    policies.push_back(stale::policy::make_policy(config.policy));
  }
  driver::TrialWorkload workload = driver::make_trial_workload(config);
  const double believed_rate = config.believed_total_rate();
  stale::dispatch::DispatcherSet boards(D, config.num_servers,
                                        config.update_interval,
                                        /*use_individual=*/false, rng);
  stale::dispatch::ArrivalSplitter splitter(D, config.dispatcher_split);
  boards.enable_level_index();
  cluster.enable_lazy_advance();
  std::vector<stale::sim::Rng> policy_rngs;
  for (int d = 0; d < D; ++d) policy_rngs.push_back(rng.split());
  stale::queueing::LoadImbalanceStats imbalance;
  std::vector<std::uint64_t> last_versions(static_cast<std::size_t>(D), 0);
  laps.lap(spans.setup);

  double t = 0.0;
  for (std::uint64_t job = 0; job < config.num_jobs; ++job) {
    laps.lap(spans.loop);
    t += workload.arrivals->next_gap(rng);
    laps.lap(spans.draw);
    boards.sync_all_to(cluster, t);
    laps.lap(spans.sync);
    const int d = splitter.pick(rng);
    laps.lap(spans.split);

    stale::policy::DispatchContext context;
    context.lambda_total = believed_rate;
    context.loads = boards.loads(d);
    context.age = boards.age(d, t);
    context.phase_length = config.update_interval;
    context.phase_elapsed = context.age;
    context.info_version = boards.version(d);
    context.levels = &boards.level_index(d);
    laps.lap(spans.context);
    std::uint64_t& last_version = last_versions[static_cast<std::size_t>(d)];
    if (context.info_version != last_version) {
      last_version = context.info_version;
      ++spans.versions;
    }

    const int server = policies[static_cast<std::size_t>(d)]->select(
        context, policy_rngs[static_cast<std::size_t>(d)]);
    laps.lap(spans.select);
    cluster.advance_to(t);
    laps.lap(spans.advance);
    if (job >= config.warmup_jobs) {
      imbalance.observe(cluster.level_histogram());
      laps.lap(spans.imbalance);
    }
    const double size = workload.sizes->sample(rng);
    laps.lap(spans.draw);
    const double departure = cluster.assign(t, server, size);
    laps.lap(spans.assign);
    metrics.record(departure - t);
    laps.lap(spans.metrics);
  }
  spans.arrivals += config.num_jobs;
  return {metrics.mean_response(), imbalance.mean_within_snapshot_stddev()};
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// Engine set-up time: run_trial on a one-job trial (validate() needs at
// least one job past warmup), repeated until 10 ms have passed or 20 times,
// at least once. Called before every trial, so the set-up samples span the
// whole run like the trials do.
void time_setup(const driver::ExperimentConfig& config, std::uint64_t seed,
                std::vector<double>& times) {
  driver::ExperimentConfig one = config;
  one.num_jobs = 1;
  one.warmup_jobs = 0;
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep < 20 && (rep == 0 || seconds_since(start) < 0.01);
       ++rep) {
    const Clock::time_point t0 = Clock::now();
    (void)driver::run_trial(one, seed);
    times.push_back(seconds_since(t0));
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  int trials = 0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench_sim: " << error << "\n"
            << "usage: perfbench_sim --workload NAME --seed S "
               "(--seconds X | --trials N) --trace 0|1\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trials") {
      args.trials = std::stoi(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      usage("unknown flag '" + flag + "'");
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if ((args.seconds > 0.0) == (args.trials > 0)) {
    usage("give exactly one of --seconds and --trials");
  }
  return args;
}

void print_array(std::ostream& os, const char* key,
                 const std::vector<double>& values) {
  os << "\"" << key << "\": [";
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << (i > 0 ? ", " : "") << values[i];
  }
  os << "]";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const driver::ExperimentConfig config = make_config(args.workload);
    const bool multi = config.dispatchers > 1;

    std::ostringstream out;
    out.precision(std::numeric_limits<double>::max_digits10);
    out << "{\"workload\": \"" << args.workload << "\""
        << ", \"num_jobs\": " << config.num_jobs
        << ", \"warmup_jobs\": " << config.warmup_jobs;

    std::vector<double> setup, wall, cpu, mean_response, queue_stddev, p50,
        p99, measured, traced_wall, identical;
    Spans spans;
    const Clock::time_point start = Clock::now();
    for (int trial = 0;; ++trial) {
      const bool done =
          args.trials > 0
              ? trial >= args.trials
              : trial > 0 && seconds_since(start) >= args.seconds;
      if (done) break;
      const std::uint64_t seed = stale::sim::trial_seed(args.seed, trial);
      if (!args.trace) time_setup(config, seed, setup);
      TracedOutcome traced;
      if (args.trace) {
        const Clock::time_point t0 = Clock::now();
        traced = multi ? traced_multi_trial(config, seed, spans)
                       : traced_board_trial(config, seed, spans);
        traced_wall.push_back(seconds_since(t0));
      }
      const double cpu0 = thread_cpu_seconds();
      const Clock::time_point t0 = Clock::now();
      const driver::TrialResult result = driver::run_trial(config, seed);
      wall.push_back(seconds_since(t0));
      cpu.push_back(thread_cpu_seconds() - cpu0);
      mean_response.push_back(result.mean_response);
      queue_stddev.push_back(result.mean_queue_stddev);
      p50.push_back(result.p50_response);
      p99.push_back(result.p99_response);
      measured.push_back(static_cast<double>(result.measured_jobs));
      if (args.trace) {
        identical.push_back(traced.mean_response == result.mean_response &&
                                    traced.queue_stddev ==
                                        result.mean_queue_stddev
                                ? 1.0
                                : 0.0);
      }
    }

    if (!args.trace) {
      out << ", ";
      print_array(out, "setup_s", setup);
    }
    out << ", ";
    print_array(out, "wall_s", wall);
    out << ", ";
    print_array(out, "cpu_s", cpu);
    out << ", ";
    print_array(out, "mean_response", mean_response);
    out << ", ";
    print_array(out, "queue_stddev", queue_stddev);
    out << ", ";
    print_array(out, "p50_response", p50);
    out << ", ";
    print_array(out, "p99_response", p99);
    out << ", ";
    print_array(out, "measured_jobs", measured);
    if (args.trace) {
      out << ", ";
      print_array(out, "traced_wall_s", traced_wall);
      out << ", ";
      print_array(out, "identical", identical);
      out << ", \"spans_ns\": {"
          << "\"draw\": " << spans.draw << ", \"sync\": " << spans.sync
          << ", \"context\": " << spans.context
          << ", \"split\": " << spans.split
          << ", \"select\": " << spans.select
          << ", \"advance\": " << spans.advance
          << ", \"imbalance\": " << spans.imbalance
          << ", \"assign\": " << spans.assign
          << ", \"metrics\": " << spans.metrics
          << ", \"loop\": " << spans.loop << ", \"setup\": " << spans.setup
          << "}, \"arrivals\": " << spans.arrivals
          << ", \"versions\": " << spans.versions;
    }
    out << ", \"peak_rss_kb\": " << peak_rss_kb() << "}";
    std::cout << out.str() << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perfbench_sim: " << error.what() << "\n";
    return 1;
  }
}
