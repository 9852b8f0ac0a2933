// Google-benchmark microbenchmarks: per-decision cost of each dispatch
// policy, the LI math kernels across cluster sizes, the samplers, the
// event-queue kernel (slab vs. the retired hash-map design), end-to-end
// simulation throughput (jobs/second) for each staleness model, and the
// thread-pool scaling of run_experiment.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/aggressive_schedule.h"
#include "core/ksubset_analysis.h"
#include "core/load_interpretation.h"
#include "core/sampler.h"
#include "dispatch/dispatcher_set.h"
#include "driver/experiment.h"
#include "sim/distributions.h"
#include "lint/lint.h"
#include "loadinfo/individual_board.h"
#include "policy/policy_factory.h"
#include "queueing/cluster.h"
#include "sim/level_histogram.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace {

std::vector<double> random_loads(int n, stale::sim::Rng& rng) {
  std::vector<double> loads(static_cast<std::size_t>(n));
  for (double& b : loads) b = static_cast<double>(rng.next_below(20));
  return loads;
}

void BM_BasicLiProbabilities(benchmark::State& state) {
  stale::sim::Rng rng(1);
  const auto loads = random_loads(static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stale::core::basic_li_probabilities(
        std::span<const double>(loads), 9.0));
  }
}
BENCHMARK(BM_BasicLiProbabilities)->Arg(10)->Arg(100)->Arg(1000);

void BM_AggressiveSchedule(benchmark::State& state) {
  stale::sim::Rng rng(2);
  const auto loads = random_loads(static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stale::core::make_aggressive_schedule(loads));
  }
}
BENCHMARK(BM_AggressiveSchedule)->Arg(10)->Arg(100)->Arg(1000);

void BM_KsubsetRankProbabilities(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(stale::core::ksubset_rank_probabilities(
        static_cast<int>(state.range(0)), 3));
  }
}
BENCHMARK(BM_KsubsetRankProbabilities)->Arg(10)->Arg(1000);

void BM_DiscreteSampler(benchmark::State& state) {
  stale::sim::Rng rng(3);
  std::vector<double> p(static_cast<std::size_t>(state.range(0)), 1.0);
  const stale::core::DiscreteSampler sampler{std::span<const double>(p)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(rng));
  }
}
BENCHMARK(BM_DiscreteSampler)->Arg(10)->Arg(1000);

void BM_AliasSampler(benchmark::State& state) {
  stale::sim::Rng rng(4);
  std::vector<double> p(static_cast<std::size_t>(state.range(0)), 1.0);
  const stale::core::AliasSampler sampler{std::span<const double>(p)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(rng));
  }
}
BENCHMARK(BM_AliasSampler)->Arg(10)->Arg(1000);

void BM_PolicyDecision(benchmark::State& state,
                       const std::string& spec) {
  const auto policy = stale::policy::make_policy(spec);
  stale::sim::Rng rng(5);
  std::vector<int> loads(10);
  for (int i = 0; i < 10; ++i) loads[static_cast<std::size_t>(i)] = i % 4;
  stale::policy::DispatchContext context;
  context.loads = loads;
  context.lambda_total = 9.0;
  context.age = 2.0;
  std::uint64_t version = 0;
  for (auto _ : state) {
    context.info_version = ++version;  // worst case: no caching possible
    benchmark::DoNotOptimize(policy->select(context, rng));
  }
}
BENCHMARK_CAPTURE(BM_PolicyDecision, random, "random");
BENCHMARK_CAPTURE(BM_PolicyDecision, k_subset_2, "k_subset:2");
BENCHMARK_CAPTURE(BM_PolicyDecision, basic_li, "basic_li");
BENCHMARK_CAPTURE(BM_PolicyDecision, aggressive_li, "aggressive_li");
BENCHMARK_CAPTURE(BM_PolicyDecision, basic_li_k3, "basic_li_k:3");

// Per-decision dispatch cost at large n: the O(n) vector representation
// against the O(#levels) bucketed path over the same board snapshot.
// info_version is bumped every iteration so each decision pays a full
// rebuild — the worst case for both representations and the regime where
// the asymptotic separation shows (a periodic phase boundary at every
// arrival). Phase geometry mimics a periodic run mid-phase.
void BM_LargeNDispatch(benchmark::State& state, const std::string& spec,
                       bool bucketed) {
  const auto policy = stale::policy::make_policy(spec);
  const int n = static_cast<int>(state.range(0));
  stale::sim::Rng rng(6);
  std::vector<int> loads(static_cast<std::size_t>(n));
  for (int& b : loads) b = static_cast<int>(rng.next_below(20));
  stale::sim::LevelIndex index;
  if (bucketed) index.build(loads);
  stale::policy::DispatchContext context;
  context.loads = loads;
  context.lambda_total = 0.9 * n;
  context.phase_length = 1.0;
  context.phase_elapsed = 0.5;
  context.age = 0.5;
  if (bucketed) context.levels = &index;
  std::uint64_t version = 0;
  for (auto _ : state) {
    context.info_version = ++version;
    benchmark::DoNotOptimize(policy->select(context, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_LargeNDispatch, basic_li_vector, "basic_li", false)
    ->Arg(1'000)->Arg(100'000)->Arg(1'000'000);
BENCHMARK_CAPTURE(BM_LargeNDispatch, basic_li_bucketed, "basic_li", true)
    ->Arg(1'000)->Arg(100'000)->Arg(1'000'000);
BENCHMARK_CAPTURE(BM_LargeNDispatch, aggressive_li_vector, "aggressive_li",
                  false)
    ->Arg(1'000)->Arg(100'000)->Arg(1'000'000);
BENCHMARK_CAPTURE(BM_LargeNDispatch, aggressive_li_bucketed, "aggressive_li",
                  true)
    ->Arg(1'000)->Arg(100'000)->Arg(1'000'000);
BENCHMARK_CAPTURE(BM_LargeNDispatch, hybrid_li_vector, "hybrid_li", false)
    ->Arg(100'000);
BENCHMARK_CAPTURE(BM_LargeNDispatch, hybrid_li_bucketed, "hybrid_li", true)
    ->Arg(100'000);
BENCHMARK_CAPTURE(BM_LargeNDispatch, threshold_vector, "threshold:all:3",
                  false)
    ->Arg(100'000);
BENCHMARK_CAPTURE(BM_LargeNDispatch, threshold_bucketed, "threshold:all:3",
                  true)
    ->Arg(100'000);

// Per-arrival Basic LI cost when only K moves: the board (info_version)
// stays fixed while the age, and with it K = lambda * age, changes at every
// request, as under the individual and continuous models. Each decision
// re-solves the fill over the cached sort and rebuilds the sampler in place.
void BM_BasicLiPerArrivalK(benchmark::State& state) {
  const auto policy = stale::policy::make_policy("basic_li");
  const int n = static_cast<int>(state.range(0));
  stale::sim::Rng rng(8);
  std::vector<int> loads(static_cast<std::size_t>(n));
  for (int& b : loads) b = static_cast<int>(rng.next_below(20));
  stale::policy::DispatchContext context;
  context.loads = loads;
  context.lambda_total = 0.9 * n;
  context.info_version = 1;
  double age = 0.0;
  for (auto _ : state) {
    age = age >= 1.0 ? 0.001 : age + 0.001;
    context.age = age;
    benchmark::DoNotOptimize(policy->select(context, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BasicLiPerArrivalK)->Arg(100)->Arg(1000);

// One individual-board sync per simulated arrival at 0.9 arrivals per
// server per heartbeat interval, so about 1.1 heartbeats fall due per sync:
// each comes off the heartbeat heap, measures the cluster and publishes.
void BM_IndividualBoardSync(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  stale::sim::Rng rng(9);
  stale::queueing::Cluster cluster(n);
  stale::loadinfo::IndividualBoard board(n, /*update_interval=*/1.0, rng);
  const stale::sim::Exponential gap(1.0 / (0.9 * n));
  double t = 0.0;
  for (auto _ : state) {
    t += gap.sample(rng);
    board.sync(cluster, t);
    benchmark::DoNotOptimize(board.version());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IndividualBoardSync)->Arg(1000);

// Per-arrival cost of the multi-dispatcher hot path at n = 100'000 on the
// bucketed representation: one Poisson-thinning draw, the D-board
// interleaved sync (sync_all_to steps every dispatcher's pending refresh
// boundaries in global time order), a bucketed basic_li decision against
// the picked dispatcher's own board, and the cluster assignment. D = 1 is
// the single-dispatcher arrival cost; the D sweep prices the scale-out
// overhead, which is the board fan-out (D refreshes per interval), not the
// per-decision work.
void BM_MultiDispatcherDispatch(benchmark::State& state) {
  const int d_count = static_cast<int>(state.range(0));
  constexpr int kServers = 100'000;
  stale::sim::Rng rng(7);
  stale::queueing::Cluster cluster(kServers);
  stale::dispatch::DispatcherSet boards(d_count, kServers,
                                        /*update_interval=*/1.0,
                                        /*use_individual=*/false, rng);
  boards.enable_level_index();
  const stale::dispatch::ArrivalSplitter splitter(
      d_count, stale::dispatch::DispatcherSplit::kUniform);
  const auto policy = stale::policy::make_policy("basic_li");
  const double lambda_total = 0.9 * kServers;
  double t = 0.0;
  for (auto _ : state) {
    t += stale::sim::Exponential(1.0 / lambda_total).sample(rng);
    const int d = splitter.pick(rng);
    boards.sync_all_to(cluster, t);
    stale::policy::DispatchContext context;
    context.loads = boards.loads(d);
    context.lambda_total = lambda_total;
    context.age = boards.age(d, t);
    context.phase_length = 1.0;
    context.phase_elapsed = context.age;
    context.info_version = boards.version(d);
    context.levels = &boards.level_index(d);
    const int server = policy->select(context, rng);
    cluster.assign(t, server, 1.0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MultiDispatcherDispatch)->Arg(1)->Arg(4)->Arg(16);

// Trial set-up at scale: building an n-server cluster and a four-dispatcher
// periodic board set, the per-trial fixed cost of the large-n runs. Per-server
// queues allocate nothing until first used, so this is a few O(n) vector
// fills rather than n heap allocations per queue.
void BM_ClusterSetup(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    stale::sim::Rng rng(3);
    stale::queueing::Cluster cluster(n);
    stale::dispatch::DispatcherSet boards(4, n, /*update_interval=*/1.0,
                                          /*use_individual=*/false, rng);
    benchmark::DoNotOptimize(cluster.loads().data());
    benchmark::DoNotOptimize(boards.loads(0).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ClusterSetup)->Arg(100'000);

// The event-queue design the slab replaced: an unordered_map from event id
// to callback plus a lazy-deletion heap. Kept here (only here) as the
// baseline for BM_SimulatorEventLoop — one hash insert/find/erase and a
// map-node allocation per event.
class HashMapSimulator {
 public:
  using EventFn = std::function<void(HashMapSimulator&)>;
  struct Handle {
    std::uint64_t id = 0;
  };

  double now() const { return now_; }

  Handle schedule_after(double delay, EventFn fn) {
    const std::uint64_t id = next_id_++;
    queue_.push(Entry{now_ + delay, id});
    callbacks_.emplace(id, std::move(fn));
    return Handle{id};
  }

  bool cancel(Handle handle) { return callbacks_.erase(handle.id) > 0; }

  std::uint64_t run() {
    std::uint64_t fired = 0;
    while (step()) ++fired;
    return fired;
  }

 private:
  struct Entry {
    double when;
    std::uint64_t id;
    bool operator>(const Entry& other) const {
      if (when != other.when) return when > other.when;
      return id > other.id;
    }
  };

  bool step() {
    while (!queue_.empty() && callbacks_.count(queue_.top().id) == 0) {
      queue_.pop();  // cancelled; discard
    }
    if (queue_.empty()) return false;
    const Entry entry = queue_.top();
    queue_.pop();
    const auto it = callbacks_.find(entry.id);
    EventFn fn = std::move(it->second);
    callbacks_.erase(it);
    now_ = entry.when;
    fn(*this);
    return true;
  }

  double now_ = 0.0;
  std::uint64_t next_id_ = 1;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::unordered_map<std::uint64_t, EventFn> callbacks_;
};

// Timer-chain workload shared by the two event-loop benches: `chains`
// concurrent self-rescheduling timers, each also scheduling and cancelling a
// decoy per tick so the cancellation path is exercised too.
template <typename Sim, typename Fn>
std::uint64_t run_event_loop(int chains, std::uint64_t events_per_chain) {
  Sim sim;
  std::vector<Fn> tick(static_cast<std::size_t>(chains));
  std::vector<std::uint64_t> remaining(static_cast<std::size_t>(chains),
                                       events_per_chain);
  std::uint64_t fired = 0;
  for (int i = 0; i < chains; ++i) {
    const auto slot = static_cast<std::size_t>(i);
    const double gap = 0.5 + 0.01 * i;
    tick[slot] = [&tick, &remaining, &fired, slot, gap](Sim& s) {
      ++fired;
      const auto decoy = s.schedule_after(gap * 3.0, [](Sim&) {});
      s.cancel(decoy);
      if (--remaining[slot] > 0) s.schedule_after(gap, tick[slot]);
    };
    sim.schedule_after(gap, tick[slot]);
  }
  sim.run();
  return fired;
}

void BM_SimulatorEventLoop(benchmark::State& state) {
  const int chains = static_cast<int>(state.range(0));
  constexpr std::uint64_t kEventsPerChain = 2'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_event_loop<stale::sim::Simulator, stale::sim::EventFn>(
            chains, kEventsPerChain));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          chains * static_cast<std::int64_t>(kEventsPerChain));
}
BENCHMARK(BM_SimulatorEventLoop)->Arg(10)->Arg(100)->Arg(1000);

void BM_SimulatorEventLoopHashMap(benchmark::State& state) {
  const int chains = static_cast<int>(state.range(0));
  constexpr std::uint64_t kEventsPerChain = 2'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_event_loop<HashMapSimulator, HashMapSimulator::EventFn>(
            chains, kEventsPerChain));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          chains * static_cast<std::int64_t>(kEventsPerChain));
}
BENCHMARK(BM_SimulatorEventLoopHashMap)->Arg(10)->Arg(100)->Arg(1000);

void BM_TrialThroughput(benchmark::State& state,
                        stale::driver::UpdateModel model) {
  stale::driver::ExperimentConfig config;
  config.model = model;
  config.update_interval = 4.0;
  config.num_jobs = 20'000;
  config.warmup_jobs = 1'000;
  config.policy = "basic_li";
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stale::driver::run_trial(config, seed++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(config.num_jobs));
}
BENCHMARK_CAPTURE(BM_TrialThroughput, periodic,
                  stale::driver::UpdateModel::kPeriodic);
BENCHMARK_CAPTURE(BM_TrialThroughput, continuous,
                  stale::driver::UpdateModel::kContinuous);
BENCHMARK_CAPTURE(BM_TrialThroughput, update_on_access,
                  stale::driver::UpdateModel::kUpdateOnAccess);

// End-to-end experiment throughput (jobs simulated per second of wall
// time) as a function of the worker-thread count: 8 trials fanned out over
// the runtime thread pool.
void BM_ExperimentThreadScaling(benchmark::State& state) {
  stale::driver::ExperimentConfig config;
  config.model = stale::driver::UpdateModel::kPeriodic;
  config.update_interval = 4.0;
  config.num_jobs = 20'000;
  config.warmup_jobs = 1'000;
  config.policy = "basic_li";
  config.trials = 8;
  config.jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stale::driver::run_experiment(config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          config.trials *
                          static_cast<std::int64_t>(config.num_jobs));
}
BENCHMARK(BM_ExperimentThreadScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Full staleload_lint sweep over the repository's real source trees (the
// same invocation CI gates on). The token-stream analyzer re-lexes every
// file per iteration, so this is the end-to-end cost of the v2 rule set —
// bench_diff catches a rule whose scan accidentally goes quadratic.
void BM_LintFullRepo(benchmark::State& state) {
  const std::string root = STALELOAD_REPO_ROOT;
  const std::vector<std::string> roots = {
      root + "/src", root + "/tools", root + "/bench", root + "/tests",
      root + "/examples"};
  const std::string allowlist = root + "/tools/lint/contract_allowlist.txt";
  std::size_t findings = 0;
  int files = 0;
  for (auto _ : state) {
    const stale::lint::ScanResult result =
        stale::lint::scan_tree(roots, allowlist);
    findings += result.findings.size();
    files = result.files_scanned;
    benchmark::DoNotOptimize(findings);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          files);
  state.counters["files"] = static_cast<double>(files);
}
BENCHMARK(BM_LintFullRepo)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
