// Ablation (extension): closing the paper's loop on "servers tell clients
// the arrival rate" — Basic LI driven by online rate estimators instead of
// being told lambda. Columns: told the exact rate; the paper's conservative
// max-throughput rule; EWMA-learned; sliding-window-learned. Expected shape:
// all four within a few percent, because LI tolerates overestimates and the
// estimators converge quickly at steady load.
#include <iostream>

#include "bench_common.h"
#include "driver/table.h"

int main(int argc, char** argv) {
  return stale::bench::run_bench(
      argc, argv, {}, [](const stale::driver::Cli& cli) {
        stale::driver::ExperimentConfig base;
        base.num_servers = 10;
        base.lambda = 0.9;
        base.model = stale::driver::UpdateModel::kPeriodic;
        base.policy = "basic_li";
        cli.apply_run_scale(base);

        stale::bench::print_header(
            "Ablation: rate estimators",
            "Basic LI with told vs. learned arrival rates, periodic update",
            cli, "n = 10, lambda = 0.9");

        const std::vector<std::string> estimators = {
            "told", "conservative", "ewma:50", "windowed:100"};
        std::vector<std::string> columns{"T"};
        for (const auto& estimator : estimators) columns.push_back(estimator);
        stale::driver::Table table(std::move(columns));

        for (double t : stale::bench::t_grid(cli, 64.0)) {
          std::vector<std::string> row{stale::driver::Table::fmt(t, 3)};
          for (const auto& estimator : estimators) {
            stale::driver::ExperimentConfig config = base;
            config.update_interval = t;
            config.rate_estimator = estimator;
            const auto result = stale::driver::run_experiment(config);
            row.push_back(
                stale::driver::Table::fmt_ci(result.mean(), result.ci90()));
          }
          table.add_row(std::move(row));
        }
        table.print(std::cout, cli.csv());
      });
}
