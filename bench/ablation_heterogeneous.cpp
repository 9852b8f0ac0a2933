// Ablation (paper future work): heterogeneous server capacities. A cluster
// whose rates are {2, 2, 1, 1, 1, 1, 0.5, 0.5} (total 9, like nine unit
// servers) is driven through the LoadInterpreter facade directly, comparing:
//   rate-weighted Basic LI (knows capacities), plain Basic LI (assumes
//   homogeneity), capacity-proportional random, and uniform random.
// Expected shape: weighted LI wins; plain LI overloads the slow servers as
// staleness grows; uniform random is worst because the 0.5-rate servers run
// at twice the intended utilization.
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "core/interpreter.h"
#include "driver/table.h"
#include "loadinfo/periodic_board.h"
#include "queueing/cluster.h"
#include "queueing/metrics.h"
#include "sim/rng.h"

namespace {

using stale::core::LiMode;
using stale::core::LoadInterpreter;
using stale::core::RateSource;

const std::vector<double> kRates = {2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5};

enum class Mode { kWeightedLi, kPlainLi, kProportionalRandom, kUniform };

double run_trial(Mode mode, double update_interval, double lambda,
                 std::uint64_t jobs, std::uint64_t warmup,
                 std::uint64_t seed) {
  const int n = static_cast<int>(kRates.size());
  double total_rate = 0.0;
  for (double rate : kRates) total_rate += rate;
  const double arrival_rate = lambda * total_rate;

  stale::sim::Rng rng(seed);
  stale::queueing::Cluster cluster(kRates, 0.0);
  stale::loadinfo::PeriodicBoard board(n, update_interval);
  stale::queueing::ResponseMetrics metrics(warmup);

  LoadInterpreter::Options options;
  options.mode = LiMode::kBasic;
  options.num_servers = n;
  options.rate = RateSource::told(arrival_rate);
  if (mode == Mode::kWeightedLi) options.server_rates = kRates;
  LoadInterpreter interpreter(std::move(options));

  // Capacity-proportional random sampler.
  std::vector<double> proportional(kRates.begin(), kRates.end());
  const stale::core::DiscreteSampler proportional_sampler{
      std::span<const double>(proportional)};

  double t = 0.0;
  std::uint64_t board_version = 0;
  for (std::uint64_t job = 0; job < jobs; ++job) {
    t += -std::log(rng.next_double_open0()) / arrival_rate;
    board.sync(cluster, t);

    int server = 0;
    switch (mode) {
      case Mode::kWeightedLi:
      case Mode::kPlainLi:
        if (board.version() != board_version) {
          // LI interprets against the full phase, matching the periodic
          // Basic LI policy (K = lambda_total * T); the distribution is
          // then reused for every arrival of the phase.
          interpreter.report_loads(std::span<const int>(board.loads()),
                                   board.phase_length());
          board_version = board.version();
        }
        server = interpreter.pick(rng);
        break;
      case Mode::kProportionalRandom:
        server = proportional_sampler.sample(rng);
        break;
      case Mode::kUniform:
        server = static_cast<int>(rng.next_below(kRates.size()));
        break;
    }
    // Job sizes are exponential with mean 1 *work unit*; a rate-c server
    // finishes a unit of work in 1/c time.
    const double size = -std::log(rng.next_double_open0());
    const double departure = cluster.assign(t, server, size);
    metrics.record(departure - t);
  }
  return metrics.mean_response();
}

}  // namespace

int main(int argc, char** argv) {
  return stale::bench::run_bench(
      argc, argv, {}, [](const stale::driver::Cli& cli) {
        stale::driver::ExperimentConfig scale;
        cli.apply_run_scale(scale);

        stale::bench::print_header(
            "Ablation: heterogeneous servers",
            "rate-weighted Basic LI on a mixed-capacity cluster (future "
            "work in the paper)",
            cli, "rates = {2,2,1,1,1,1,0.5,0.5}, lambda = 0.85");

        stale::driver::Table table(
            {"T", "weighted_li", "plain_li", "prop_random", "uniform"});
        for (double t : stale::bench::t_grid(cli, 32.0)) {
          std::vector<std::string> row{stale::driver::Table::fmt(t, 3)};
          for (Mode mode : {Mode::kWeightedLi, Mode::kPlainLi,
                            Mode::kProportionalRandom, Mode::kUniform}) {
            stale::sim::RunningStats stats;
            for (int trial = 0; trial < scale.trials; ++trial) {
              stats.add(run_trial(mode, t, 0.85, scale.num_jobs,
                                  scale.warmup_jobs,
                                  stale::sim::trial_seed(scale.base_seed,
                                                         trial)));
            }
            row.push_back(stale::driver::Table::fmt_ci(
                stats.mean(), stats.ci90_half_width()));
          }
          table.add_row(std::move(row));
        }
        table.print(std::cout, cli.csv());
      });
}
