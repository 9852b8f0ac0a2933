// Figure 12: Basic LI under the periodic update model when the believed
// arrival rate is wrong by a factor between 1/8 and 8. Expected shape:
// underestimating lambda (factors < 1) makes LI over-aggressive and hurts
// badly; overestimating (factors > 1) makes it conservative and costs little
// — the asymmetry behind the paper's "assume maximum throughput" advice.
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
            "Figure 12",
            "Basic LI with a misestimated arrival rate, periodic update", cli,
            "n = 10, lambda = 0.9; columns: believed-rate error factor");

        const std::vector<double> factors = {0.125, 0.25, 0.5, 1.0,
                                             2.0,   4.0,  8.0};
        std::vector<std::string> columns{"T"};
        for (double factor : factors) {
          columns.push_back(stale::driver::Table::fmt(factor, 3) + "*load");
        }
        stale::driver::Table table(std::move(columns));

        for (double t : stale::bench::t_grid(cli, 64.0)) {
          std::vector<std::string> row{stale::driver::Table::fmt(t, 3)};
          for (double factor : factors) {
            stale::driver::ExperimentConfig config = base;
            config.update_interval = t;
            config.lambda_error_factor = factor;
            const auto result = stale::driver::run_experiment(config);
            row.push_back(
                stale::driver::Table::fmt_ci(result.mean(), result.ci90()));
          }
          table.add_row(std::move(row));
        }
        table.print(std::cout, cli.csv());
      });
}
