// Ablation: tail latency. The paper reports means; modern services care
// about p95/p99. This bench reports mean / p95 / p99 response times per
// policy across the staleness sweep. Expected shape: the herd effect is even
// more brutal in the tail than in the mean (a herded server's whole queue
// sees the pile-up), and LI's tail advantage over k-subset at moderate T
// exceeds its mean advantage.
#include <iostream>

#include "bench_common.h"
#include "driver/table.h"
#include "sim/rng.h"
#include "sim/stats.h"

int main(int argc, char** argv) {
  return stale::bench::run_bench(
      argc, argv, {}, [](const stale::driver::Cli& cli) {
        stale::driver::ExperimentConfig base;
        base.num_servers = 10;
        base.lambda = 0.9;
        base.model = stale::driver::UpdateModel::kPeriodic;
        base.keep_response_samples = true;
        cli.apply_run_scale(base);

        stale::bench::print_header(
            "Ablation: tail latency",
            "mean / p95 / p99 response time per policy, periodic update",
            cli, "n = 10, lambda = 0.9");

        const std::vector<std::string> policies = {
            "random", "k_subset:2", "k_subset:10", "basic_li",
            "aggressive_li"};
        std::vector<std::string> columns{"T"};
        for (const auto& policy : policies) {
          columns.push_back(policy + " mean/p95/p99");
        }
        stale::driver::Table table(std::move(columns));

        for (double t : stale::bench::t_grid(cli, 64.0)) {
          std::vector<std::string> row{stale::driver::Table::fmt(t, 3)};
          for (const auto& policy : policies) {
            stale::driver::ExperimentConfig config = base;
            config.update_interval = t;
            config.policy = policy;
            stale::sim::RunningStats mean;
            stale::sim::RunningStats p95;
            stale::sim::RunningStats p99;
            for (int trial = 0; trial < config.trials; ++trial) {
              const auto result = stale::driver::run_trial(
                  config, stale::sim::trial_seed(config.base_seed, trial));
              mean.add(result.mean_response);
              p95.add(result.p95_response);
              p99.add(result.p99_response);
            }
            row.push_back(stale::driver::Table::fmt(mean.mean(), 1) + "/" +
                          stale::driver::Table::fmt(p95.mean(), 1) + "/" +
                          stale::driver::Table::fmt(p99.mean(), 1));
          }
          table.add_row(std::move(row));
        }
        table.print(std::cout, cli.csv());
      });
}
