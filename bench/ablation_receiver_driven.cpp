// Ablation: sender-driven dispatch with and without receiver-driven work
// stealing (the paper's future-work combination). Idle servers probe 3 peers
// with fresh state and steal a waiting job. Questions this answers:
//   1. How much of the herd effect can receivers repair? (k = n + stealing)
//   2. Does LI still pay off once stealing exists? (basic_li+steal vs
//      random+steal)
//   3. What does a migration cost do to the balance?
#include <iostream>

#include "bench_common.h"
#include "driver/table.h"

namespace {

using stale::driver::ExperimentConfig;
using stale::driver::Table;

std::string run_cell(const ExperimentConfig& config) {
  const auto result = stale::driver::run_experiment(config);
  return Table::fmt_ci(result.mean(), result.ci90(), 3);
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
        base.migration_delay = cli.number("migration-delay", 0.1);

        stale::bench::print_header(
            "Ablation: receiver-driven rebalancing",
            "idle servers probe 3 peers and steal a waiting job "
            "(migration delay " +
                Table::fmt(base.migration_delay, 2) + ")",
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
            row.push_back(run_cell(config));
            config.stealing = true;
            row.push_back(run_cell(config));
          }
          table.add_row(std::move(row));
        }
        table.print(std::cout, cli.csv());
      });
}
