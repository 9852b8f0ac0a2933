// Ablation: sender-driven dispatch with and without receiver-driven work
// stealing (the paper's future-work combination). Idle servers probe 3 peers
// with fresh state and steal a waiting job. Questions this answers:
//   1. How much of the herd effect can receivers repair? (k = n + stealing)
//   2. Does LI still pay off once stealing exists? (basic_li+steal vs
//      random+steal)
//   3. What does a migration cost do to the balance?
#include <iostream>

#include "bench_common.h"
#include "driver/receiver_driven.h"
#include "driver/table.h"
#include "sim/rng.h"
#include "sim/stats.h"

namespace {

using stale::driver::ExperimentConfig;
using stale::driver::StealingOptions;
using stale::driver::Table;

std::string run_cell(const ExperimentConfig& config,
                     const StealingOptions& options) {
  stale::sim::RunningStats stats;
  for (int trial = 0; trial < config.trials; ++trial) {
    const auto result = run_receiver_driven_trial(
        config, options, stale::sim::trial_seed(config.base_seed, trial));
    stats.add(result.mean_response);
  }
  return Table::fmt_ci(stats.mean(), stats.ci90_half_width(), 3);
}

}  // namespace

int main(int argc, char** argv) {
  return stale::bench::run_bench(
      argc, argv,
      {{"migration-delay", "X", "time a stolen job spends in transit"}},
      [](const stale::driver::Cli& cli) {
        ExperimentConfig base;
        base.num_servers = 10;
        base.lambda = 0.9;
        base.model = stale::driver::UpdateModel::kPeriodic;
        cli.apply_run_scale(base);
        // The event-kernel engine is several times slower than the lazy
        // engine; trim the default run length accordingly.
        if (!cli.has("paper") && !cli.has("num-jobs")) {
          base.num_jobs /= 2;
          base.warmup_jobs /= 2;
        }

        StealingOptions stealing;
        stealing.migration_delay = cli.number("migration-delay", 0.1);

        stale::bench::print_header(
            "Ablation: receiver-driven rebalancing",
            "idle servers probe 3 peers and steal a waiting job "
            "(migration delay " +
                Table::fmt(stealing.migration_delay, 2) + ")",
            cli, "n = 10, lambda = 0.9, periodic update");

        const std::vector<std::string> policies = {"random", "k_subset:2",
                                                   "k_subset:10", "basic_li"};
        std::vector<std::string> columns{"T"};
        for (const auto& policy : policies) {
          columns.push_back(policy);
          columns.push_back(policy + "+steal");
        }
        Table table(std::move(columns));

        for (double t : stale::bench::t_grid(cli, 32.0)) {
          std::vector<std::string> row{Table::fmt(t, 3)};
          for (const auto& policy : policies) {
            ExperimentConfig config = base;
            config.update_interval = t;
            config.policy = policy;
            StealingOptions off = stealing;
            off.enabled = false;
            row.push_back(run_cell(config, off));
            row.push_back(run_cell(config, stealing));
          }
          table.add_row(std::move(row));
        }
        table.print(std::cout, cli.csv());
      });
}
