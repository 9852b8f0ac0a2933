// Ablation: the herd effect seen directly in queue-length dispersion. For
// each policy and update interval we report the within-snapshot standard
// deviation of the ten queue lengths (PASTA-sampled at arrival epochs) and
// the mean per-snapshot maximum. Under k = n the stddev explodes with T —
// the flood/starve oscillation the paper describes in its first paragraph —
// while LI's dispersion converges to random's instead of diverging.
#include <iostream>

#include "bench_common.h"
#include "driver/table.h"
#include "sim/rng.h"

int main(int argc, char** argv) {
  return stale::bench::run_bench(
      argc, argv, {}, [](const stale::driver::Cli& cli) {
        stale::driver::ExperimentConfig base;
        base.num_servers = 10;
        base.lambda = 0.9;
        base.model = stale::driver::UpdateModel::kPeriodic;
        cli.apply_run_scale(base);

        stale::bench::print_header(
            "Ablation: herd imbalance",
            "queue-length dispersion (stddev / max across 10 servers) at "
            "arrival epochs",
            cli, "n = 10, lambda = 0.9, periodic update");

        const std::vector<std::string> policies = {
            "random", "k_subset:2", "k_subset:10", "basic_li",
            "aggressive_li"};
        std::vector<std::string> columns{"T"};
        for (const auto& policy : policies) {
          columns.push_back(policy + " sd/max");
        }
        stale::driver::Table table(std::move(columns));

        for (double t : stale::bench::t_grid(cli, 64.0)) {
          std::vector<std::string> row{stale::driver::Table::fmt(t, 3)};
          for (const auto& policy : policies) {
            stale::driver::ExperimentConfig config = base;
            config.update_interval = t;
            config.policy = policy;
            stale::sim::RunningStats stddev;
            stale::sim::RunningStats maxima;
            for (int trial = 0; trial < config.trials; ++trial) {
              const auto result = stale::driver::run_trial(
                  config, stale::sim::trial_seed(config.base_seed, trial));
              stddev.add(result.mean_queue_stddev);
              maxima.add(result.mean_queue_max);
            }
            row.push_back(stale::driver::Table::fmt(stddev.mean(), 2) + "/" +
                          stale::driver::Table::fmt(maxima.mean(), 1));
          }
          table.add_row(std::move(row));
        }
        table.print(std::cout, cli.csv());
      });
}
